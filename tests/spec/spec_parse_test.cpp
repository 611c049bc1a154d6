#include "spec/spec.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "scenario/table1.h"
#include "spec/engine.h"
#include "util/logging.h"

#include <gtest/gtest.h>

namespace cavenet::spec {
namespace {

std::string error_of(const std::string& json) {
  try {
    parse_campaign(json, "test.json");
  } catch (const SpecError& e) {
    return e.what();
  }
  return "";
}

TEST(SpecParseTest, MinimalCampaignGetsTableIDefaults) {
  const CampaignSpec spec = parse_campaign(
      R"({"name": "t", "kind": "campaign", "scenario": {}})", "test.json");
  EXPECT_EQ(spec.name, "t");
  EXPECT_EQ(spec.title, "t");
  EXPECT_EQ(spec.kind, SpecKind::kCampaign);
  const scenario::TableIConfig defaults;
  const scenario::TableIConfig& config = spec.scenario.config;
  EXPECT_EQ(config.vehicles, defaults.vehicles);
  EXPECT_EQ(config.lane_cells, defaults.lane_cells);
  EXPECT_DOUBLE_EQ(config.slowdown_p, defaults.slowdown_p);
  EXPECT_EQ(config.seed, defaults.seed);
  EXPECT_DOUBLE_EQ(config.mac_rate_bps, defaults.mac_rate_bps);
  EXPECT_EQ(config.protocol, defaults.protocol);
  EXPECT_EQ(spec.outputs.csv, "t.csv");
  EXPECT_EQ(spec.outputs.manifest, "t.manifest.json");
  EXPECT_EQ(spec.fingerprint.size(), 16u);
}

TEST(SpecParseTest, FullScenarioRoundTrip) {
  const CampaignSpec spec = parse_campaign(R"({
    "name": "full", "title": "Full", "kind": "campaign",
    "scenario": {
      "seed": 9, "duration_s": 50,
      "mobility": {"model": "nas", "lane_cells": 200, "vehicles": 12,
                   "slowdown_p": 0.25, "boundary": "open"},
      "phy": {"propagation": "shadowing", "shadowing_exponent": 3.0,
              "shadowing_sigma_db": 6.0, "index": "linear"},
      "mac": {"rate_bps": 11e6, "rts_cts": true},
      "routing": {"protocol": "dsdv"},
      "traffic": {"packets_per_second": 2, "payload_bytes": 256,
                  "start_s": 5, "stop_s": 45, "receiver": 0, "sender": 3},
      "obs": {"stats": false, "heartbeat_s": 10}
    }
  })", "test.json");
  const scenario::TableIConfig& config = spec.scenario.config;
  EXPECT_EQ(config.seed, 9u);
  EXPECT_DOUBLE_EQ(config.duration_s, 50.0);
  EXPECT_EQ(config.lane_cells, 200);
  EXPECT_EQ(config.vehicles, 12);
  EXPECT_DOUBLE_EQ(config.slowdown_p, 0.25);
  EXPECT_FALSE(config.circular_layout);
  EXPECT_EQ(config.propagation, scenario::Propagation::kShadowing);
  EXPECT_EQ(config.channel_index, phy::ChannelIndex::kLinear);
  EXPECT_DOUBLE_EQ(config.mac_rate_bps, 11e6);
  EXPECT_TRUE(config.use_rts_cts);
  EXPECT_EQ(config.protocol, scenario::Protocol::kDsdv);
  EXPECT_DOUBLE_EQ(config.packets_per_second, 2.0);
  EXPECT_EQ(config.payload_bytes, 256u);
  EXPECT_EQ(config.sender, 3u);
  EXPECT_FALSE(spec.scenario.collect_stats);
  EXPECT_DOUBLE_EQ(config.heartbeat_s, 10.0);
}

/// Parses `json`, returning the number of deprecation warnings logged.
int deprecation_warnings(const std::string& json) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kWarn);
  ::testing::internal::CaptureStderr();
  parse_campaign(json, "test.json");
  const std::string err = ::testing::internal::GetCapturedStderr();
  set_log_level(saved);
  int count = 0;
  for (std::size_t at = err.find("is deprecated and ignored");
       at != std::string::npos;
       at = err.find("is deprecated and ignored", at + 1)) {
    ++count;
  }
  return count;
}

TEST(SpecParseTest, EngineParallelParsesAndDefaults) {
  // The kernel has no parallelism settings: the block parses, warns once
  // and leaves the scenario at its defaults.
  EXPECT_EQ(deprecation_warnings(
                R"({"name": "t", "kind": "campaign", "scenario": {}})"),
            0);
  EXPECT_EQ(deprecation_warnings(R"({
    "name": "t", "kind": "campaign",
    "scenario": {"engine": {"parallel":
        {"shards": 4, "threads": 2, "epoch_s": 0.5}}}
  })"),
            1);
}

TEST(SpecParseTest, EngineLegacyShardKeysAliasTheParallelBlock) {
  // Pre-ParallelConfig specs spelled the knobs flat on `engine`; like
  // the block they parse as no-ops with one warning per key.
  EXPECT_EQ(deprecation_warnings(R"({
    "name": "t", "kind": "campaign",
    "scenario": {"engine": {"shards": 4, "shard_epoch_s": 0.5,
                            "threads": 2}}
  })"),
            3);
}

TEST(SpecParseTest, EngineLegacyKeyMixedWithParallelBlockIsRejected) {
  const std::string what = error_of(R"({
    "name": "t", "kind": "campaign",
    "scenario": {"engine": {"parallel": {"shards": 2}, "shards": 4}}
  })");
  EXPECT_NE(what.find("$.scenario.engine.shards"), std::string::npos) << what;
  EXPECT_NE(what.find("deprecated alias"), std::string::npos) << what;
  EXPECT_NE(what.find("$.scenario.engine.parallel.shards"),
            std::string::npos)
      << what;
}

TEST(SpecParseTest, DeprecatedEngineKeysRunByteIdenticalToFig8Aodv) {
  // Each deprecated engine key, injected into the checked-in Fig. 8
  // spec, must leave every output byte unchanged.
  std::ifstream in(CAVENET_SPEC_DIR "/fig8_aodv.json");
  ASSERT_TRUE(in.is_open());
  std::ostringstream text;
  text << in.rdbuf();
  const std::string plain = text.str();
  const std::string anchor = "\"scenario\": {";
  ASSERT_NE(plain.find(anchor), std::string::npos);

  const auto run_csv = [](const std::string& json, const std::string& tag) {
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / ("deprecated_" + tag);
    std::filesystem::remove_all(dir);
    RunOptions options;
    options.jobs = 2;
    options.output_dir = dir.string();
    EXPECT_EQ(run_spec(parse_campaign(json, tag + ".json"), options), 0);
    std::ifstream csv(dir / "goodput_AODV.csv", std::ios::binary);
    std::ostringstream bytes;
    bytes << csv.rdbuf();
    return bytes.str();
  };
  const std::string reference = run_csv(plain, "plain");
  ASSERT_FALSE(reference.empty());

  const char* const engines[] = {
      R"("parallel": {"shards": 4, "threads": 4, "epoch_s": 0.5})",
      R"("shards": 4)", R"("shard_epoch_s": 0.5)", R"("threads": 4)"};
  int tag = 0;
  for (const char* engine : engines) {
    std::string json = plain;
    json.insert(json.find(anchor) + anchor.size(),
                std::string("\"engine\": {") + engine + "}, ");
    EXPECT_EQ(deprecation_warnings(json), 1) << engine;
    EXPECT_EQ(run_csv(json, "engine" + std::to_string(tag++)), reference)
        << engine;
  }
}

TEST(SpecParseTest, EngineParallelIsRangeChecked) {
  const std::string zero = error_of(R"({
    "name": "t", "kind": "campaign",
    "scenario": {"engine": {"parallel": {"shards": 0}}}
  })");
  EXPECT_NE(zero.find("$.scenario.engine.parallel.shards"),
            std::string::npos)
      << zero;

  const std::string bad_epoch = error_of(R"({
    "name": "t", "kind": "campaign",
    "scenario": {"engine": {"shard_epoch_s": 0}}
  })");
  EXPECT_NE(bad_epoch.find("$.scenario.engine.shard_epoch_s"),
            std::string::npos)
      << bad_epoch;

  const std::string unknown = error_of(R"({
    "name": "t", "kind": "campaign",
    "scenario": {"engine": {"parallel": {"shard": 4}}}
  })");
  EXPECT_NE(unknown.find("$.scenario.engine.parallel.shard"),
            std::string::npos)
      << unknown;
  EXPECT_NE(unknown.find("did you mean \"shards\"?"), std::string::npos)
      << unknown;
}

TEST(SpecParseTest, UnknownKeyIsRejectedWithSuggestion) {
  const std::string what = error_of(R"({
    "name": "t", "kind": "campaign",
    "scenario": {"mobility": {"vehicels": 10}}
  })");
  EXPECT_NE(what.find("$.scenario.mobility.vehicels"), std::string::npos)
      << what;
  EXPECT_NE(what.find("did you mean \"vehicles\"?"), std::string::npos)
      << what;
}

TEST(SpecParseTest, EnumErrorListsChoicesAndSuggests) {
  const std::string what = error_of(R"({
    "name": "t", "kind": "campaign",
    "scenario": {"routing": {"protocol": "adov"}}
  })");
  EXPECT_NE(what.find("$.scenario.routing.protocol"), std::string::npos)
      << what;
  EXPECT_NE(what.find("\"aodv\""), std::string::npos) << what;
  EXPECT_NE(what.find("did you mean \"aodv\"?"), std::string::npos) << what;
}

TEST(SpecParseTest, RangeAndTypeErrorsNameTheSpecPath) {
  EXPECT_NE(error_of(R"({"name": "t", "kind": "campaign",
                         "scenario": {"mobility": {"slowdown_p": 1.5}}})")
                .find("$.scenario.mobility.slowdown_p"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"name": "t", "kind": "campaign",
                         "scenario": {"mobility": {"vehicles": 2.5}}})")
                .find("expected an integer"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"name": "t", "kind": "campaign",
                         "scenario": {"traffic": {"sender": true}}})")
                .find("$.scenario.traffic.sender"),
            std::string::npos);
}

TEST(SpecParseTest, SyntaxErrorsCarryLineAndColumn) {
  try {
    parse_campaign("{\n  \"name\": oops\n}", "bad.json");
    FAIL() << "expected obs::JsonParseError";
  } catch (const obs::JsonParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("bad.json:2:"), std::string::npos);
  }
}

TEST(SpecParseTest, TrafficWindowMustFitTheRun) {
  EXPECT_NE(error_of(R"({"name": "t", "kind": "campaign",
                         "scenario": {"duration_s": 20}})")
                .find("traffic stops after"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"name": "t", "kind": "campaign",
                         "scenario": {"traffic": {"start_s": 50,
                                                  "stop_s": 40}}})")
                .find("precedes start_s"),
            std::string::npos);
}

TEST(SpecParseTest, SenderMustBeWithinTheFleet) {
  EXPECT_NE(error_of(R"({"name": "t", "kind": "campaign",
                         "scenario": {"mobility": {"vehicles": 5},
                                      "traffic": {"sender": 7}}})")
                .find("sender 7 is out of range for 5 nodes"),
            std::string::npos);
}

TEST(SpecParseTest, CampaignRejectsSenderRange) {
  EXPECT_NE(
      error_of(R"({"name": "t", "kind": "campaign",
                   "scenario": {"traffic": {"senders": {"first": 1,
                                                        "last": 4}}}})")
          .find("campaign points run one flow"),
      std::string::npos);
}

TEST(SpecParseTest, GoodputSurfaceAcceptsSenderRange) {
  const CampaignSpec spec = parse_campaign(
      R"({"name": "g", "kind": "goodput_surface",
          "scenario": {"traffic": {"senders": {"first": 2, "last": 6}}}})",
      "test.json");
  EXPECT_EQ(spec.scenario.first_sender, 2u);
  EXPECT_EQ(spec.scenario.last_sender, 6u);
}

TEST(SpecParseTest, SweepingTheSeedIsRejected) {
  EXPECT_NE(error_of(R"({"name": "t", "kind": "campaign", "scenario": {},
                         "sweep": {"axes": [{"param": "seed",
                                             "values": [1, 2]}]}})")
                .find("sweeping \"seed\" is not allowed"),
            std::string::npos);
}

TEST(SpecParseTest, KindGatesTheSections) {
  EXPECT_NE(error_of(R"({"name": "t", "kind": "fundamental_diagram",
                         "scenario": {}})")
                .find("takes no scenario/sweep"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"name": "t", "kind": "goodput_surface",
                         "scenario": {},
                         "sweep": {"replications": 2}})")
                .find("only valid with"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"name": "t", "kind": "campaign"})")
                .find("\"scenario\" is required"),
            std::string::npos);
}

TEST(SpecParseTest, FundamentalDiagramSection) {
  const CampaignSpec spec = parse_campaign(R"({
    "name": "fd", "kind": "fundamental_diagram",
    "fundamental_diagram": {"lane_cells": 100, "points": 5, "trials": 2,
                            "iterations": 50, "warmup": 10, "seed": 2,
                            "slowdown_p": [0.1, 0.2, 0.3]}
  })", "test.json");
  EXPECT_EQ(spec.kind, SpecKind::kFundamentalDiagram);
  EXPECT_EQ(spec.fd.lane_cells, 100);
  EXPECT_EQ(spec.fd.points, 5);
  EXPECT_EQ(spec.fd.slowdown_ps.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.fd.slowdown_ps[1], 0.2);
}

TEST(SpecParseTest, GridMobilityAndTransformRules) {
  const CampaignSpec grid = parse_campaign(R"({
    "name": "g", "kind": "campaign",
    "scenario": {"mobility": {"model": "grid",
                              "grid": {"horizontal_lanes": 2,
                                       "vertical_lanes": 2,
                                       "vehicles_per_lane": 4},
                              "trace_steps": 50},
                 "traffic": {"sender": 3}}
  })", "test.json");
  EXPECT_EQ(grid.scenario.mobility_model, MobilityModel::kGrid);
  EXPECT_EQ(grid.scenario.grid.horizontal_lanes, 2);
  EXPECT_EQ(grid.scenario.grid_trace_steps, 50);

  const CampaignSpec ring = parse_campaign(R"({
    "name": "r", "kind": "campaign",
    "scenario": {"mobility": {"transform": {"rotate_deg": 45,
                                            "translate_x": 10,
                                            "mirror_x": true}}}
  })", "test.json");
  ASSERT_TRUE(ring.scenario.transform.has_value());
  EXPECT_DOUBLE_EQ(ring.scenario.transform->rotate_deg, 45.0);
  EXPECT_TRUE(ring.scenario.transform->mirror_x);
}

TEST(SpecParseTest, SenderAndSendersAreMutuallyExclusive) {
  EXPECT_NE(error_of(R"({"name": "t", "kind": "goodput_surface",
                         "scenario": {"traffic": {"sender": 1,
                                                  "senders": {"first": 1,
                                                              "last": 2}}}})")
                .find("not both"),
            std::string::npos);
}

}  // namespace
}  // namespace cavenet::spec
