// Spec execution entry points: kind dispatch plus the shared main the
// thin bench wrappers use.
#ifndef CAVENET_SPEC_ENGINE_H
#define CAVENET_SPEC_ENGINE_H

#include <string>

#include "spec/spec.h"

namespace cavenet::spec {

struct RunOptions {
  int jobs = 1;             ///< ensemble workers; <= 0 = hardware threads
  bool resume = false;      ///< campaigns: trust matching checkpoints
  std::string output_dir;   ///< artifact prefix ("" = cwd)
  /// Campaigns: stream per-point lifecycle events and heartbeats to
  /// "<name>.progress.jsonl" and (live) to stdout. See runner/progress.h.
  bool progress = false;
  /// Wall-clock heartbeat/stall-check period for --progress, in seconds.
  double progress_period_s = 5.0;
};

/// Dispatches on spec.kind. Returns a process exit code (0 on success).
int run_spec(const CampaignSpec& spec, const RunOptions& options);

/// load_campaign_file + run_spec.
int run_spec_file(const std::string& path, const RunOptions& options);

/// Shared main for the migrated bench binaries: parses `--jobs N` (the
/// only flag; typos abort with a did-you-mean diagnostic), runs the spec
/// at `path`, and reports any failure on stderr. Returns the exit code.
int bench_spec_main(const std::string& path, int argc,
                    const char* const* argv);

}  // namespace cavenet::spec

#endif  // CAVENET_SPEC_ENGINE_H
