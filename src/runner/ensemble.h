// Deterministic parallel ensemble execution.
//
// Every paper figure is a Monte-Carlo ensemble (densities x trials,
// senders x protocols, seeds x replications) whose replications are
// mutually independent — the textbook fan-out. EnsembleRunner spreads
// those replications over a persistent runner::Executor pool (chunk
// claiming rebalances uneven replications, the work-stealing degenerate
// case) while guaranteeing that the observable output is BITWISE
// IDENTICAL to a serial run:
//
//  * each replication draws from Rng::substream(index), a counter-based
//    stream split keyed on the replication index alone, so the random
//    numbers a replication sees never depend on which worker ran it;
//  * each replication records into a private StatsRegistry; after all
//    workers join, the registries are merged in replication order, which
//    reproduces exactly what sequential reuse of one shared registry
//    would have recorded;
//  * results land in an index-addressed slot, so the returned vector is
//    in replication order no matter the completion order.
//
// jobs == 1 runs inline on the calling thread through the very same
// substream/registry/merge path, so `--jobs 1` vs `--jobs N` differ only
// in wall-clock time.
#ifndef CAVENET_RUNNER_ENSEMBLE_H
#define CAVENET_RUNNER_ENSEMBLE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "obs/stats_registry.h"
#include "runner/executor.h"
#include "util/rng.h"

namespace cavenet::runner {

/// Resolves a --jobs request: values <= 0 mean "one worker per hardware
/// thread" (never less than 1). Same rule as exec::resolve_workers.
int resolve_jobs(int requested) noexcept;

/// Parses the standard ensemble-bench command line: `--jobs N` (N <= 0
/// resolves to the hardware thread count; default 1, the serial
/// behaviour). Throws std::invalid_argument on unknown or malformed
/// flags so typos fail loudly instead of silently running serial.
int parse_jobs_flag(int argc, const char* const* argv);

struct EnsembleOptions {
  /// Worker threads; <= 0 resolves to the hardware thread count.
  /// Ignored when `executor` is injected.
  int jobs = 1;
  /// Seed material for the per-replication substreams. Two runners with
  /// the same (master_seed, rng_stream) hand replication i the same
  /// stream; vary rng_stream to decorrelate nested ensembles.
  std::uint64_t master_seed = 1;
  std::uint64_t rng_stream = 0x656e73;  // "ens"
  /// Shared execution pool to schedule replications on instead of a
  /// runner-owned one (non-owning; must outlive the runner).
  Executor* executor = nullptr;
};

/// What a replication body receives: its index, a private RNG stream and
/// a private stats registry. The registry outlives the body call and is
/// merged into the caller's registry in index order.
struct ReplicationContext {
  std::size_t index = 0;      ///< replication id, 0..total-1
  std::size_t total = 0;      ///< replication count of this ensemble
  Rng rng;                    ///< substream(index); independent per replication
  obs::StatsRegistry* stats = nullptr;  ///< private to this replication
};

class EnsembleRunner {
 public:
  explicit EnsembleRunner(EnsembleOptions options = {});

  /// Resolved worker count (>= 1).
  int jobs() const noexcept { return jobs_; }

  /// The pool replications are scheduled on: the injected executor, the
  /// runner-owned persistent ThreadPoolExecutor (jobs > 1), or an inline
  /// executor (jobs == 1).
  Executor& executor() noexcept { return *executor_; }

  /// Runs body(ctx) once per replication 0..n-1 across jobs() executor
  /// lanes. When `merged` is non-null, the per-replication
  /// registries are folded into it in replication order after the pool
  /// drains. If one or more bodies throw, the exception of the
  /// lowest-indexed failing replication is rethrown (deterministically)
  /// after all workers have stopped.
  void for_each(std::size_t n,
                const std::function<void(ReplicationContext&)>& body,
                obs::StatsRegistry* merged = nullptr);

  /// for_each() collecting one default-constructible Result per
  /// replication, returned in replication order.
  template <typename Result, typename Body>
  std::vector<Result> map(std::size_t n, Body&& body,
                          obs::StatsRegistry* merged = nullptr) {
    std::vector<Result> results(n);
    for_each(
        n,
        [&results, &body](ReplicationContext& ctx) {
          results[ctx.index] = body(ctx);
        },
        merged);
    return results;
  }

 private:
  EnsembleOptions options_;
  int jobs_ = 1;
  /// Persistent pool, created once at construction and reused by every
  /// for_each call (replaces the per-call thread spawning the runner
  /// started with).
  std::unique_ptr<ThreadPoolExecutor> pool_;
  InlineExecutor inline_executor_;
  Executor* executor_ = &inline_executor_;
};

}  // namespace cavenet::runner

#endif  // CAVENET_RUNNER_ENSEMBLE_H
