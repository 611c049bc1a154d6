#include "runner/ensemble.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/stats_registry.h"

namespace cavenet::runner {
namespace {

TEST(ResolveJobsTest, PositiveValuesPassThrough) {
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(7), 7);
}

TEST(ResolveJobsTest, NonPositiveMeansHardwareThreadsNeverLessThanOne) {
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_GE(resolve_jobs(-3), 1);
}

TEST(ParseJobsFlagTest, DefaultsToSerial) {
  const char* argv[] = {"bench"};
  EXPECT_EQ(parse_jobs_flag(1, argv), 1);
}

TEST(ParseJobsFlagTest, ParsesExplicitCount) {
  const char* argv[] = {"bench", "--jobs", "4"};
  EXPECT_EQ(parse_jobs_flag(3, argv), 4);
}

TEST(ParseJobsFlagTest, ZeroResolvesToHardwareThreads) {
  const char* argv[] = {"bench", "--jobs", "0"};
  EXPECT_GE(parse_jobs_flag(3, argv), 1);
}

TEST(CheckedJobsTest, AcceptsZeroThroughTheCapOnly) {
  EXPECT_EQ(checked_jobs(0), 0);
  EXPECT_EQ(checked_jobs(kMaxJobs), 1024);
  // Checked before narrowing to int: 2^32 + 4 must not wrap to 4.
  for (const std::int64_t jobs :
       {std::int64_t{-1}, kMaxJobs + 1, (std::int64_t{1} << 32) + 4}) {
    EXPECT_THROW(checked_jobs(jobs), std::invalid_argument) << jobs;
  }
}

TEST(ParseJobsFlagTest, OutOfRangeCountThrows) {
  // Parsing only: the validator rejects the count before any pool exists.
  const char* argv[] = {"bench", "--jobs", "100000"};
  EXPECT_THROW(parse_jobs_flag(3, argv), std::invalid_argument);
}

TEST(ParseJobsFlagTest, UnknownFlagThrows) {
  const char* argv[] = {"bench", "--jbos", "4"};
  EXPECT_THROW(parse_jobs_flag(3, argv), std::invalid_argument);
}

TEST(EnsembleRunnerTest, MapReturnsResultsInReplicationOrder) {
  for (const int jobs : {1, 4}) {
    EnsembleOptions options;
    options.jobs = jobs;
    EnsembleRunner pool(options);
    const auto out = pool.map<std::size_t>(
        100, [](ReplicationContext& ctx) { return ctx.index * 10; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 10);
  }
}

TEST(EnsembleRunnerTest, EveryReplicationRunsExactlyOnce) {
  EnsembleOptions options;
  options.jobs = 4;
  EnsembleRunner pool(options);
  std::atomic<int> calls{0};
  std::vector<std::atomic<int>> per_index(57);
  pool.for_each(57, [&](ReplicationContext& ctx) {
    ++calls;
    ++per_index[ctx.index];
    EXPECT_EQ(ctx.total, 57u);
    EXPECT_NE(ctx.stats, nullptr);
  });
  EXPECT_EQ(calls.load(), 57);
  for (const auto& c : per_index) EXPECT_EQ(c.load(), 1);
}

TEST(EnsembleRunnerTest, ZeroReplicationsIsANoOp) {
  EnsembleRunner pool;
  bool called = false;
  pool.for_each(0, [&](ReplicationContext&) { called = true; });
  EXPECT_FALSE(called);
}

// The heart of the determinism guarantee: the random draws a replication
// sees depend only on (master_seed, rng_stream, index), never on the
// worker count or schedule.
TEST(EnsembleRunnerTest, ReplicationStreamsAreIndependentOfJobs) {
  const auto draws_at = [](int jobs) {
    EnsembleOptions options;
    options.jobs = jobs;
    options.master_seed = 99;
    EnsembleRunner pool(options);
    return pool.map<std::uint64_t>(
        32, [](ReplicationContext& ctx) { return ctx.rng.next_u64(); });
  };
  const auto serial = draws_at(1);
  EXPECT_EQ(serial, draws_at(3));
  EXPECT_EQ(serial, draws_at(8));

  // ... and the 32 streams are mutually distinct.
  auto sorted = serial;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(EnsembleRunnerTest, MasterSeedSelectsTheEnsemble) {
  const auto first_draw = [](std::uint64_t seed) {
    EnsembleOptions options;
    options.master_seed = seed;
    EnsembleRunner pool(options);
    return pool.map<std::uint64_t>(
        1, [](ReplicationContext& ctx) { return ctx.rng.next_u64(); })[0];
  };
  EXPECT_NE(first_draw(1), first_draw(2));
}

TEST(EnsembleRunnerTest, MergedStatsAreIdenticalForAnyJobsCount) {
  const auto stats_json_at = [](int jobs) {
    EnsembleOptions options;
    options.jobs = jobs;
    EnsembleRunner pool(options);
    obs::StatsRegistry merged;
    pool.for_each(
        20,
        [](ReplicationContext& ctx) {
          ctx.stats->counter("runs").inc();
          ctx.stats->counter("work.items").inc(ctx.index);
          ctx.stats->gauge("last.index").set(static_cast<double>(ctx.index));
          ctx.stats->histogram("index.hist").observe(
              static_cast<double>(ctx.index));
        },
        &merged);
    return merged.snapshot().to_json();
  };
  const auto serial = stats_json_at(1);
  EXPECT_EQ(serial, stats_json_at(4));
  EXPECT_EQ(serial, stats_json_at(16));
}

TEST(EnsembleRunnerTest, MergeReproducesSequentialSharedRegistrySemantics) {
  EnsembleOptions options;
  options.jobs = 4;
  EnsembleRunner pool(options);
  obs::StatsRegistry merged;
  pool.for_each(
      10,
      [](ReplicationContext& ctx) {
        ctx.stats->counter("total").inc(ctx.index);
        ctx.stats->gauge("last").set(static_cast<double>(ctx.index));
      },
      &merged);
  // Counters accumulate across replications: 0 + 1 + ... + 9.
  EXPECT_EQ(merged.snapshot().counter("total"), 45u);
  // Gauges keep the value of the LAST replication in index order, exactly
  // as sequential reuse of one shared registry would.
  EXPECT_EQ(merged.snapshot().gauge("last"), 9.0);
}

TEST(EnsembleRunnerTest, LowestIndexExceptionWinsDeterministically) {
  for (const int jobs : {1, 4}) {
    EnsembleOptions options;
    options.jobs = jobs;
    EnsembleRunner pool(options);
    try {
      pool.for_each(16, [](ReplicationContext& ctx) {
        if (ctx.index == 3 || ctx.index == 7 || ctx.index == 11) {
          throw std::runtime_error("failed at " + std::to_string(ctx.index));
        }
      });
      FAIL() << "expected for_each to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "failed at 3") << "jobs=" << jobs;
    }
  }
}

TEST(EnsembleRunnerTest, AllReplicationsFinishEvenWhenSomeThrow) {
  EnsembleOptions options;
  options.jobs = 4;
  EnsembleRunner pool(options);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.for_each(20,
                             [&](ReplicationContext& ctx) {
                               if (ctx.index % 5 == 0) {
                                 throw std::runtime_error("boom");
                               }
                               ++completed;
                             }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 16);
}

TEST(EnsembleRunnerTest, MoreJobsThanReplicationsIsFine) {
  EnsembleOptions options;
  options.jobs = 16;
  EnsembleRunner pool(options);
  const auto out = pool.map<std::size_t>(
      3, [](ReplicationContext& ctx) { return ctx.index; });
  EXPECT_EQ(out, (std::vector<std::size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace cavenet::runner
