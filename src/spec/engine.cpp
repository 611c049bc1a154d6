#include "spec/engine.h"

#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>

#include "runner/ensemble.h"
#include "runner/progress.h"
#include "util/cli_args.h"
#include "spec/campaign.h"
#include "spec/figures.h"

namespace cavenet::spec {

int run_spec(const CampaignSpec& spec, const RunOptions& options) {
  if (!options.output_dir.empty()) {
    std::filesystem::create_directories(options.output_dir);
  }
  switch (spec.kind) {
    case SpecKind::kGoodputSurface:
      return run_goodput_surface(spec, options.jobs, options.output_dir);
    case SpecKind::kFundamentalDiagram:
      return run_fundamental_diagram(spec, options.jobs, options.output_dir);
    case SpecKind::kCampaign: {
      CampaignOptions campaign_options;
      campaign_options.jobs = options.jobs;
      campaign_options.resume = options.resume;
      campaign_options.output_dir = options.output_dir;
      std::unique_ptr<runner::ProgressStream> progress;
      if (options.progress) {
        std::size_t total = static_cast<std::size_t>(
            spec.sweep.replications > 0 ? spec.sweep.replications : 1);
        for (const SweepAxis& axis : spec.sweep.axes) {
          total *= axis.values.size();
        }
        runner::ProgressOptions progress_options;
        progress_options.path = join_output_path(
            options.output_dir, spec.name + ".progress.jsonl");
        progress_options.echo_stdout = true;
        progress_options.heartbeat_period_s = options.progress_period_s;
        progress = std::make_unique<runner::ProgressStream>(
            total, options.jobs, progress_options);
        campaign_options.progress = progress.get();
      }
      run_campaign(spec, campaign_options);
      return 0;
    }
  }
  return 2;
}

int run_spec_file(const std::string& path, const RunOptions& options) {
  return run_spec(load_campaign_file(path), options);
}

int bench_spec_main(const std::string& path, int argc,
                    const char* const* argv) {
  try {
    const CliArgs args(argc, argv);
    RunOptions options;
    options.jobs =
        runner::resolve_jobs(static_cast<int>(args.get_int("jobs", 1)));
    args.reject_unknown_flags();
    return run_spec_file(path, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

}  // namespace cavenet::spec
