// Pins the spec-engine migration: running the checked-in figure specs
// must write byte-identical CSV + stripped-manifest artifacts to the
// hardcoded drivers the benches used before the migration (replicated
// inline here), at --jobs 1 and --jobs 4 alike.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fundamental_diagram.h"
#include "obs/run_manifest.h"
#include "obs/stats_registry.h"
#include "scenario/run_record.h"
#include "scenario/table1.h"
#include "spec/engine.h"
#include "spec/spec.h"
#include "util/table_writer.h"

#include <gtest/gtest.h>

// Same GCC 12 -Wmaybe-uninitialized false positive inside
// std::variant<std::string,...> row construction that src/spec/figures.cpp
// documents; the string alternative is never the active member here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace cavenet::spec {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing artifact " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void run_spec_into(const CampaignSpec& spec, int jobs, const fs::path& dir) {
  RunOptions options;
  options.jobs = jobs;
  options.output_dir = dir.string();
  ASSERT_EQ(run_spec(spec, options), 0);
}

// The pre-migration bench_fig8_aodv_goodput driver, verbatim: seeds,
// sweep, CSV schema, and manifest assembly (wall timing stripped).
struct GoodputGolden {
  std::string csv;
  std::string manifest;
};

GoodputGolden hardcoded_fig8_aodv() {
  using namespace cavenet::scenario;
  TableIConfig config;
  config.seed = 3;
  config.protocol = Protocol::kAodv;
  obs::StatsRegistry stats;
  config.obs.stats = &stats;
  const auto results = run_all_senders(config, 1, 8, /*jobs=*/1);

  TableWriter csv({"sender", "second", "goodput_bps"});
  double max_goodput = 0.0;
  for (const auto& r : results) {
    for (std::size_t s = 0; s < r.goodput_bps.size(); ++s) {
      csv.add_row({static_cast<std::int64_t>(r.sender),
                   static_cast<std::int64_t>(s), r.goodput_bps[s]});
      max_goodput = std::max(max_goodput, r.goodput_bps[s]);
    }
  }
  std::ostringstream csv_text;
  csv.write_csv(csv_text);

  obs::RunManifest manifest =
      make_run_manifest("goodput_AODV", config, results, 0.0);
  manifest.set_param("senders", "1..8");
  manifest.set_metric("peak_goodput_bps", max_goodput);
  manifest.strip_volatile();
  return {csv_text.str(), manifest.to_json() + "\n"};
}

// The pre-migration bench_fig4_fundamental_diagram driver, verbatim.
GoodputGolden hardcoded_fig4() {
  ca::FundamentalDiagramOptions options;
  options.params.lane_length = 400;
  options.params.v_max = 5;
  options.densities = ca::density_ladder(400, 0.5, 21);
  options.iterations = 500;
  options.trials = 20;
  options.warmup = 200;
  options.seed = 4;
  options.jobs = 1;

  const std::vector<double> ps{0.0, 0.5};
  std::vector<std::vector<ca::FundamentalDiagramPoint>> curves;
  for (const double p : ps) {
    options.params.slowdown_p = p;
    curves.push_back(ca::fundamental_diagram(options));
  }

  TableWriter table(
      {"rho", "J (p=0)", "sd", "J (p=0.5)", "sd", "J theory (p=0)"});
  for (std::size_t i = 0; i < curves.front().size(); ++i) {
    std::vector<TableCell> row;
    row.push_back(curves.front()[i].density);
    for (const auto& curve : curves) {
      row.push_back(curve[i].flow);
      row.push_back(curve[i].flow_stddev);
    }
    row.push_back(ca::deterministic_flow(curves.front()[i].density, 5));
    table.add_row(std::move(row));
  }
  std::ostringstream csv_text;
  table.write_csv(csv_text);

  obs::RunManifest manifest;
  manifest.name = "fig4_fundamental_diagram";
  manifest.seed = 4;
  manifest.set_param("lane_cells", 400);
  manifest.set_param("v_max", static_cast<std::int64_t>(5));
  manifest.set_param("max_density", 0.5);
  manifest.set_param("points", 21);
  manifest.set_param("iterations", 500);
  manifest.set_param("trials", 20);
  manifest.set_param("warmup", 200);
  manifest.set_param("slowdown_p", "0,0.5");
  for (std::size_t c = 0; c < curves.size(); ++c) {
    double peak = 0.0, peak_rho = 0.0;
    for (const auto& point : curves[c]) {
      if (point.flow > peak) {
        peak = point.flow;
        peak_rho = point.density;
      }
    }
    const std::string suffix = c == 0 ? "(p=0)" : "(p=0.5)";
    manifest.set_metric("peak_flow" + suffix, peak);
    manifest.set_metric("peak_density" + suffix, peak_rho);
  }
  manifest.strip_volatile();
  return {csv_text.str(), manifest.to_json() + "\n"};
}

TEST(GoldenEquivalenceTest, Fig8SpecMatchesHardcodedDriverAtAnyJobs) {
  const CampaignSpec spec =
      load_campaign_file(CAVENET_SPEC_DIR "/fig8_aodv.json");
  ASSERT_EQ(spec.kind, SpecKind::kGoodputSurface);

  const GoodputGolden golden = hardcoded_fig8_aodv();
  for (const int jobs : {1, 4}) {
    const fs::path dir =
        fresh_dir("golden_fig8_jobs" + std::to_string(jobs));
    run_spec_into(spec, jobs, dir);
    EXPECT_EQ(slurp(dir / "goodput_AODV.csv"), golden.csv)
        << "CSV diverged from the hardcoded driver at --jobs " << jobs;
    EXPECT_EQ(slurp(dir / "goodput_AODV.manifest.json"), golden.manifest)
        << "manifest diverged from the hardcoded driver at --jobs " << jobs;
  }
}

TEST(GoldenEquivalenceTest, Fig8ShardedExampleSpecMatchesGoldenCsv) {
  // The former examples/specs/fig8_sharded.json, kept verbatim as a
  // legacy fixture: its flat engine.shards key is a deprecated no-op, so
  // it must produce the exact CSV of the plain Fig. 8 run — the spec
  // differs only in output names.
  const CampaignSpec spec = load_campaign_file(
      CAVENET_SOURCE_DIR "/tests/spec/legacy/fig8_sharded.json");
  ASSERT_EQ(spec.kind, SpecKind::kGoodputSurface);

  const fs::path dir = fresh_dir("golden_fig8_sharded_example");
  run_spec_into(spec, /*jobs=*/1, dir);
  EXPECT_EQ(slurp(dir / "goodput_AODV_sharded.csv"),
            hardcoded_fig8_aodv().csv);
}

TEST(GoldenEquivalenceTest, Fig8ParallelExampleSpecMatchesGoldenCsv) {
  // The former examples/specs/fig8_parallel.json, kept verbatim as a
  // legacy fixture: its engine.parallel block (shards + threads) is a
  // deprecated no-op and must reproduce the Fig. 8 CSV byte-for-byte.
  const CampaignSpec spec = load_campaign_file(
      CAVENET_SOURCE_DIR "/tests/spec/legacy/fig8_parallel.json");
  ASSERT_EQ(spec.kind, SpecKind::kGoodputSurface);

  const fs::path dir = fresh_dir("golden_fig8_parallel_example");
  run_spec_into(spec, /*jobs=*/1, dir);
  EXPECT_EQ(slurp(dir / "goodput_AODV_parallel.csv"),
            hardcoded_fig8_aodv().csv);
}

TEST(GoldenEquivalenceTest, Fig4SpecMatchesHardcodedDriverAtAnyJobs) {
  const CampaignSpec spec =
      load_campaign_file(CAVENET_SPEC_DIR "/fig4_fundamental_diagram.json");
  ASSERT_EQ(spec.kind, SpecKind::kFundamentalDiagram);

  const GoodputGolden golden = hardcoded_fig4();
  for (const int jobs : {1, 4}) {
    const fs::path dir =
        fresh_dir("golden_fig4_jobs" + std::to_string(jobs));
    run_spec_into(spec, jobs, dir);
    EXPECT_EQ(slurp(dir / "fig4_fundamental_diagram.csv"), golden.csv)
        << "CSV diverged from the hardcoded driver at --jobs " << jobs;
    EXPECT_EQ(slurp(dir / "fig4_fundamental_diagram.manifest.json"),
              golden.manifest)
        << "manifest diverged from the hardcoded driver at --jobs " << jobs;
  }
}

}  // namespace
}  // namespace cavenet::spec

#pragma GCC diagnostic pop
