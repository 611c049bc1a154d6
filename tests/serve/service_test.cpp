// JobService end-to-end, against real (small) simulations:
//
//  * a served campaign's artifacts are byte-identical to a direct
//    run_campaign, at 1 worker and at several workers;
//  * a resubmitted spec is a 100% cache hit that still serves
//    byte-identical artifacts;
//  * crash recovery: killing the service mid-campaign (stop() writes no
//    terminal records — on-disk state identical to SIGKILL) and
//    restarting re-runs ONLY the unfinished units: nothing is simulated
//    twice, no result is lost, and the final outputs byte-match;
//  * the HTTP surface (submit / status / results / events / cancel)
//    over real sockets.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "obs/json.h"
#include "serve/service.h"
#include "spec/campaign.h"
#include "spec/spec.h"

#include <gtest/gtest.h>

namespace cavenet::serve {
namespace {

namespace fs = std::filesystem;

// The cheap 3x2 campaign the resume/failure tests also use (6 points).
const char kCampaignJson[] = R"({
  "name": "serve_probe", "kind": "campaign",
  "scenario": {
    "seed": 11, "duration_s": 20,
    "mobility": {"lane_cells": 150, "vehicles": 12},
    "traffic": {"start_s": 5, "stop_s": 15, "sender": 3}
  },
  "sweep": {
    "replications": 2,
    "axes": [{"param": "mobility.slowdown_p", "values": [0.3, 0.5, 0.7]}]
  }
})";

// A second tenant's distinct (also cheap) campaign: 2 points.
const char kOtherJson[] = R"({
  "name": "other_tenant", "kind": "campaign",
  "scenario": {
    "seed": 7, "duration_s": 20,
    "mobility": {"lane_cells": 150, "vehicles": 12},
    "traffic": {"start_s": 5, "stop_s": 15, "sender": 3}
  },
  "sweep": {
    "replications": 2,
    "axes": [{"param": "mobility.slowdown_p", "values": [0.5]}]
  }
})";

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing artifact " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

ServiceOptions base_options(const fs::path& state_dir, int workers) {
  ServiceOptions options;
  options.state_dir = state_dir.string();
  options.workers = workers;
  options.heartbeat_period_s = 0;  // no watchdog noise in tests
  return options;
}

/// Runs the reference campaign directly (jobs=1) into `dir`.
void run_direct(const char* json, const fs::path& dir) {
  const spec::CampaignSpec spec = spec::parse_campaign(json, "direct.json");
  spec::CampaignOptions options;
  options.jobs = 1;
  options.output_dir = dir.string();
  spec::run_campaign(spec, options);
}

void expect_job_matches_direct(JobService& service, const std::string& job_id,
                               const char* json, const fs::path& direct_dir) {
  const spec::CampaignSpec spec = spec::parse_campaign(json, "direct.json");
  const std::size_t total = spec::expand_points(spec).size();
  const fs::path job_dir = service.job_dir(job_id);
  for (std::size_t i = 0; i < total; ++i) {
    const std::string name = spec::point_manifest_path(spec, i);
    EXPECT_EQ(slurp(job_dir / name), slurp(direct_dir / name)) << name;
  }
  EXPECT_EQ(slurp(job_dir / spec.outputs.csv),
            slurp(direct_dir / spec.outputs.csv));
  EXPECT_EQ(slurp(job_dir / spec.outputs.manifest),
            slurp(direct_dir / spec.outputs.manifest));
}

TEST(JobServiceTest, ServedCampaignMatchesDirectRunByteForByte) {
  const fs::path direct_dir = fresh_dir("serve_direct");
  run_direct(kCampaignJson, direct_dir);

  // workers=1 and workers=3 must both serve bytes identical to jobs=1.
  for (const int workers : {1, 3}) {
    const fs::path state =
        fresh_dir("serve_equiv_w" + std::to_string(workers));
    JobService service(base_options(state, workers));
    const std::string job = service.submit(kCampaignJson);
    ASSERT_TRUE(service.wait(job, 120.0)) << "workers=" << workers;

    const obs::JsonValue status = service.job_status(job);
    EXPECT_EQ(status.find("state")->string, "done");
    EXPECT_EQ(status.find("units_done")->number, 6.0);
    EXPECT_EQ(status.find("cache_hits")->number, 0.0);
    expect_job_matches_direct(service, job, kCampaignJson, direct_dir);
    service.stop();
  }
}

TEST(JobServiceTest, ResubmissionIsAFullCacheHitWithIdenticalBytes) {
  const fs::path direct_dir = fresh_dir("serve_warm_direct");
  run_direct(kCampaignJson, direct_dir);

  const fs::path state = fresh_dir("serve_warm");
  JobService service(base_options(state, 2));
  const std::string cold = service.submit(kCampaignJson);
  ASSERT_TRUE(service.wait(cold, 120.0));
  const std::uint64_t executed_cold =
      service.stats().counter("serve.units.executed");
  EXPECT_EQ(executed_cold, 6u);

  // Same document, different formatting: same canonical fingerprint,
  // so every unit must come from the cache.
  std::string spaced(kCampaignJson);
  spaced += "\n\n";
  const std::string warm = service.submit(spaced);
  ASSERT_TRUE(service.wait(warm, 120.0));

  const obs::JsonValue status = service.job_status(warm);
  EXPECT_EQ(status.find("state")->string, "done");
  EXPECT_EQ(status.find("cache_hits")->number, 6.0);
  EXPECT_EQ(service.stats().counter("serve.units.executed"), executed_cold)
      << "warm submission must not simulate";
  EXPECT_GE(service.stats().counter("serve.cache.hits"), 6u);
  expect_job_matches_direct(service, warm, kCampaignJson, direct_dir);
  service.stop();
}

TEST(JobServiceTest, CrashMidCampaignRecoversWithoutDoubleSimulation) {
  const fs::path direct_dir = fresh_dir("serve_crash_direct");
  run_direct(kCampaignJson, direct_dir);

  const fs::path state = fresh_dir("serve_crash");
  std::string job;
  std::uint64_t executed_before = 0;
  {
    JobService service(base_options(state, 1));
    job = service.submit(kCampaignJson);
    // Interrupt after at least one unit completed. stop() writes no
    // terminal journal records — on-disk state is exactly what SIGKILL
    // would leave (modulo the torn tail, covered by the journal tests).
    // Poll tightly: a unit takes a few milliseconds, so a coarse poll
    // can sleep through the rest of the campaign.
    while (true) {
      const obs::JsonValue status = service.job_status(job);
      if (status.find("units_done")->number >= 2.0) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    service.stop();
    executed_before = service.stats().counter("serve.units.executed");
    ASSERT_GE(executed_before, 2u);
    ASSERT_LT(executed_before, 6u) << "interrupt happened too late to test";
  }

  // Restart on the same state dir: only the unfinished units run.
  JobService service(base_options(state, 1));
  EXPECT_GT(service.replayed_pending_units(), 0u);
  ASSERT_TRUE(service.wait(job, 120.0));
  const obs::JsonValue status = service.job_status(job);
  EXPECT_EQ(status.find("state")->string, "done");
  EXPECT_EQ(status.find("units_done")->number, 6.0);

  // No double simulation: units executed across both lives, plus any
  // replay cache hits (a unit cached before the stop but after its
  // journal record was lost), must cover each point exactly once.
  const std::uint64_t executed_after =
      service.stats().counter("serve.units.executed");
  const std::uint64_t replay_hits = service.stats().counter("serve.cache.hits");
  EXPECT_EQ(executed_before + executed_after + replay_hits, 6u)
      << "first life " << executed_before << ", second life "
      << executed_after << ", cache hits " << replay_hits;

  // No result lost: the finished artifacts byte-match a direct run.
  expect_job_matches_direct(service, job, kCampaignJson, direct_dir);
  service.stop();
}

TEST(JobServiceTest, TwoTenantsBothCompleteAndInterleave) {
  const fs::path direct_a = fresh_dir("serve_mt_direct_a");
  run_direct(kCampaignJson, direct_a);
  const fs::path direct_b = fresh_dir("serve_mt_direct_b");
  run_direct(kOtherJson, direct_b);

  const fs::path state = fresh_dir("serve_mt");
  JobService service(base_options(state, 2));
  const std::string big = service.submit(kCampaignJson);
  const std::string small = service.submit(kOtherJson);
  ASSERT_TRUE(service.wait(big, 120.0));
  ASSERT_TRUE(service.wait(small, 120.0));
  EXPECT_EQ(service.job_status(big).find("state")->string, "done");
  EXPECT_EQ(service.job_status(small).find("state")->string, "done");
  expect_job_matches_direct(service, big, kCampaignJson, direct_a);
  expect_job_matches_direct(service, small, kOtherJson, direct_b);
  service.stop();
}

TEST(JobServiceTest, InvalidSubmissionsAreRejectedUpFront) {
  const fs::path state = fresh_dir("serve_invalid");
  ServiceOptions options = base_options(state, 1);
  options.max_json_depth = 8;
  JobService service(options);
  EXPECT_THROW(service.submit("{not json"), obs::JsonParseError);
  EXPECT_THROW(service.submit(R"({"name": "x", "kind": "nope"})"),
               spec::SpecError);
  // Depth bomb bounces off the configured parse limit.
  std::string bomb = R"({"name": "x", "kind": "campaign", "scenario": )";
  bomb += std::string(32, '[') + "1" + std::string(32, ']') + "}";
  EXPECT_THROW(service.submit(bomb), obs::JsonParseError);
  EXPECT_TRUE(service.job_ids().empty()) << "rejected submissions journaled";
  service.stop();
}

TEST(JobServiceTest, CancelDropsPendingUnits) {
  const fs::path state = fresh_dir("serve_cancel");
  JobService service(base_options(state, 1));
  const std::string job = service.submit(kCampaignJson);
  ASSERT_TRUE(service.cancel(job));
  ASSERT_TRUE(service.wait(job, 30.0));
  const obs::JsonValue status = service.job_status(job);
  EXPECT_EQ(status.find("state")->string, "cancelled");
  EXPECT_LT(status.find("units_done")->number, 6.0);
  EXPECT_FALSE(service.cancel("j999"));
  service.stop();

  // Cancellation is durable: a restart replays the job as cancelled and
  // re-enqueues nothing for it.
  JobService restarted(base_options(state, 1));
  EXPECT_EQ(restarted.job_status(job).find("state")->string, "cancelled");
  EXPECT_EQ(restarted.replayed_pending_units(), 0u);
  restarted.stop();
}

TEST(JobServiceTest, HttpSurfaceEndToEnd) {
  const fs::path direct_dir = fresh_dir("serve_http_direct");
  run_direct(kOtherJson, direct_dir);

  const fs::path state = fresh_dir("serve_http");
  JobService service(base_options(state, 2));
  ASSERT_GT(service.port(), 0);

  // Submit over the wire.
  const HttpClientResponse submitted =
      http_request(service.port(), "POST", "/v1/jobs", kOtherJson);
  ASSERT_EQ(submitted.status, 201) << submitted.body;
  const obs::JsonValue accepted = obs::parse_json(submitted.body);
  const std::string job = accepted.find("job")->string;
  ASSERT_TRUE(service.wait(job, 120.0));

  // Status + listing.
  const HttpClientResponse status =
      http_request(service.port(), "GET", "/v1/jobs/" + job);
  EXPECT_EQ(status.status, 200);
  EXPECT_EQ(obs::parse_json(status.body).find("state")->string, "done");
  const HttpClientResponse listing =
      http_request(service.port(), "GET", "/v1/jobs");
  EXPECT_EQ(obs::parse_json(listing.body).find("jobs")->array.size(), 1u);

  // Results listing, then artifact bytes == direct run bytes.
  const HttpClientResponse results =
      http_request(service.port(), "GET", "/v1/jobs/" + job + "/results");
  ASSERT_EQ(results.status, 200);
  const obs::JsonValue files = *obs::parse_json(results.body).find("files");
  ASSERT_GT(files.array.size(), 0u);
  for (const obs::JsonValue& file : files.array) {
    const std::string name = file.find("name")->string;
    const HttpClientResponse artifact = http_request(
        service.port(), "GET", "/v1/jobs/" + job + "/results/" + name);
    ASSERT_EQ(artifact.status, 200) << name;
    EXPECT_EQ(artifact.body, slurp(direct_dir / name)) << name;
  }

  // Whitelist: traversal names and unknown artifacts are 404.
  EXPECT_EQ(http_request(service.port(), "GET",
                         "/v1/jobs/" + job + "/results/no_such_file.csv")
                .status,
            404);
  EXPECT_EQ(http_request(service.port(), "GET",
                         "/v1/jobs/" + job + "/results/../../journal.jsonl")
                .status,
            404);

  // Events: the completed job's progress JSONL streams back chunked.
  const HttpClientResponse events =
      http_request(service.port(), "GET", "/v1/jobs/" + job + "/events");
  EXPECT_EQ(events.status, 200);
  EXPECT_NE(events.body.find("\"event\":\"campaign_started\""),
            std::string::npos);
  EXPECT_NE(events.body.find("\"event\":\"campaign_finished\""),
            std::string::npos);

  // Unknown routes and invalid submissions map to 4xx.
  EXPECT_EQ(http_request(service.port(), "GET", "/v1/nope").status, 404);
  EXPECT_EQ(http_request(service.port(), "GET", "/v1/jobs/j999").status, 404);
  EXPECT_EQ(
      http_request(service.port(), "POST", "/v1/jobs", "{broken").status, 422);

  // Stats expose the serve.* vocabulary.
  const HttpClientResponse stats =
      http_request(service.port(), "GET", "/v1/stats");
  const obs::StatsSnapshot snapshot =
      obs::StatsSnapshot::from_json(stats.body);
  EXPECT_EQ(snapshot.counter("serve.jobs.done"), 1u);
  EXPECT_EQ(snapshot.counter("serve.cache.misses"), 2u);
  service.stop();
}

TEST(JobServiceTest, FollowStreamEndsWithTheLastProgressLine) {
  // A job finalizes under the service lock: it writes the campaign CSV,
  // turns terminal and appends campaign_finished. A follow stream that
  // snapshots the progress lines before checking the job state can see
  // it terminal without that last line. Park the worker inside finalize
  // (its CSV path is a FIFO no one reads yet) until the follower has
  // polled into the lock, then let it finish.
  const fs::path state = fresh_dir("serve_follow_tail");
  const spec::CampaignSpec spec = spec::parse_campaign(kOtherJson, "o.json");
  const fs::path job_dir = state / "jobs" / "j1";  // the first job's id
  fs::create_directories(job_dir);
  const fs::path csv = job_dir / spec.outputs.csv;
  ASSERT_EQ(::mkfifo(csv.c_str(), 0600), 0);

  JobService service(base_options(state, 1));
  const std::string job = service.submit(kOtherJson);
  ASSERT_EQ(job, "j1");
  HttpRequest request;
  request.method = "GET";
  request.target = "/v1/jobs/" + job + "/events?follow=1";
  request.path = "/v1/jobs/" + job + "/events";
  request.query = "follow=1";
  HttpResponse response = service.handle(request);
  ASSERT_TRUE(response.chunks);

  std::mutex stream_mutex;
  std::string stream;
  std::thread follower([&] {
    std::string chunk;
    while (response.chunks(&chunk)) {
      std::lock_guard<std::mutex> lock(stream_mutex);
      stream += chunk;
      chunk.clear();
    }
  });
  // The job's progress file (flushed per line) shows when both points
  // are done and the worker is heading into finalize.
  const auto points_finished = [&] {
    std::ifstream progress(job_dir / "progress.jsonl", std::ios::binary);
    std::size_t n = 0;
    for (std::string line; std::getline(progress, line);) {
      if (line.find("\"point_finished\"") != std::string::npos) ++n;
    }
    return n;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (points_finished() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(points_finished(), 2u);
  // Several 50 ms follow polls: the follower is now waiting on the lock
  // the parked worker holds.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  {
    std::ifstream drain(csv, std::ios::binary);  // releases the worker
    std::ostringstream sink;
    sink << drain.rdbuf();
  }
  follower.join();

  ASSERT_TRUE(service.wait(job, 60.0));
  std::string last_line;
  std::istringstream lines(stream);
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty()) last_line = line;
  }
  EXPECT_NE(last_line.find("\"event\":\"campaign_finished\""),
            std::string::npos)
      << "stream ended with: " << last_line;
  service.stop();
}

}  // namespace
}  // namespace cavenet::serve
