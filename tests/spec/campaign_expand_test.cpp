#include "spec/campaign.h"

#include <string>

#include "util/rng.h"
#include "spec/spec.h"

#include <gtest/gtest.h>

namespace cavenet::spec {
namespace {

const char kSweepSpec[] = R"({
  "name": "sweep", "kind": "campaign",
  "scenario": {"seed": 7, "traffic": {"sender": 4}},
  "sweep": {
    "replications": 2,
    "axes": [
      {"param": "mobility.vehicles", "values": [20, 30, 40]},
      {"param": "routing.protocol", "values": ["aodv", "olsr"]}
    ]
  }
})";

TEST(CampaignExpandTest, CartesianGridTimesReplications) {
  const CampaignSpec spec = parse_campaign(kSweepSpec, "test.json");
  const auto points = expand_points(spec);
  ASSERT_EQ(points.size(), 12u);  // 3 * 2 cells * 2 replications

  // First axis slowest: cells walk vehicles {20,20,30,30,40,40} over
  // protocol {aodv,olsr}, and replications are innermost.
  EXPECT_EQ(points[0].cell, 0u);
  EXPECT_EQ(points[0].replication, 0u);
  EXPECT_EQ(points[1].cell, 0u);
  EXPECT_EQ(points[1].replication, 1u);
  EXPECT_EQ(points[2].cell, 1u);
  EXPECT_EQ(points[2].replication, 0u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
  }

  ASSERT_EQ(points[0].axis_values.size(), 2u);
  EXPECT_EQ(points[0].axis_values[0].first, "mobility.vehicles");
  EXPECT_EQ(points[0].axis_values[0].second, "20");
  EXPECT_EQ(points[0].axis_values[1].second, "aodv");
  EXPECT_EQ(points[2].axis_values[1].second, "olsr");
  EXPECT_EQ(points[4].axis_values[0].second, "30");
  EXPECT_EQ(points[10].axis_values[0].second, "40");
  EXPECT_EQ(points[10].axis_values[1].second, "olsr");
}

TEST(CampaignExpandTest, PointsCarryThePatchedScenario) {
  const CampaignSpec spec = parse_campaign(kSweepSpec, "test.json");
  const auto points = expand_points(spec);
  EXPECT_EQ(points[0].scenario.config.vehicles, 20);
  EXPECT_EQ(points[0].scenario.config.protocol, scenario::Protocol::kAodv);
  EXPECT_EQ(points[2].scenario.config.protocol, scenario::Protocol::kOlsr);
  EXPECT_EQ(points[11].scenario.config.vehicles, 40);
  // Base fields survive the patch.
  EXPECT_EQ(points[11].scenario.config.sender, 4u);
}

TEST(CampaignExpandTest, CellsOfOneReplicationShareASeed) {
  const CampaignSpec spec = parse_campaign(kSweepSpec, "test.json");
  const auto points = expand_points(spec);
  for (const CampaignPoint& point : points) {
    // Keyed on the replication alone, so every cell is a paired
    // comparison over the same mobility and traffic.
    const Rng master(spec.scenario.config.seed, 0x63616d70);
    const std::uint64_t expected =
        master.substream(0).substream(point.replication).next_u64();
    EXPECT_EQ(point.scenario.config.seed, expected) << "point " << point.index;
    EXPECT_EQ(point.scenario.config.seed,
              points[point.replication].scenario.config.seed)
        << "point " << point.index << " vs cell 0";
  }

  // Expansion is a pure function of the spec.
  const auto again = expand_points(parse_campaign(kSweepSpec, "test.json"));
  ASSERT_EQ(again.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(again[i].scenario.config.seed, points[i].scenario.config.seed);
  }
}

TEST(CampaignExpandTest, ReplicationsGetDistinctSeeds) {
  const auto points = expand_points(parse_campaign(kSweepSpec, "test.json"));
  for (std::size_t i = 0; i < points.size(); i += 2) {
    EXPECT_NE(points[i].scenario.config.seed,
              points[i + 1].scenario.config.seed)
        << "cell " << points[i].cell;
  }
}

TEST(CampaignExpandTest, NoAxisSeedsArePinned) {
  // A campaign without sweep axes is one cell; its per-replication seeds
  // are pinned so served jobs and caches keep their results.
  const CampaignSpec spec = parse_campaign(R"({
    "name": "plain", "kind": "campaign",
    "scenario": {"seed": 3},
    "sweep": {"replications": 3}
  })", "test.json");
  const auto points = expand_points(spec);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].scenario.config.seed, 12089260408961488658ull);
  EXPECT_EQ(points[1].scenario.config.seed, 13674776632271146870ull);
  EXPECT_EQ(points[2].scenario.config.seed, 10177678906945588213ull);
}

TEST(CampaignExpandTest, PatchedPointsAreRevalidated) {
  // vehicles=2 puts sender 4 out of range; the error names the point.
  const CampaignSpec spec = parse_campaign(R"({
    "name": "bad", "kind": "campaign",
    "scenario": {"traffic": {"sender": 4}},
    "sweep": {"axes": [{"param": "mobility.vehicles", "values": [30, 2]}]}
  })", "test.json");
  try {
    expand_points(spec);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cell 1"), std::string::npos) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
}

TEST(CampaignExpandTest, PatchCannotDescendIntoScalars) {
  const CampaignSpec spec = parse_campaign(R"({
    "name": "bad", "kind": "campaign",
    "scenario": {"seed": 1},
    "sweep": {"axes": [{"param": "seed.nested", "values": [1]}]}
  })", "test.json");
  EXPECT_THROW(expand_points(spec), SpecError);
}

TEST(CampaignExpandTest, NoSweepMeansReplicationsPoints) {
  const CampaignSpec spec = parse_campaign(R"({
    "name": "plain", "kind": "campaign",
    "scenario": {"seed": 3},
    "sweep": {"replications": 4}
  })", "test.json");
  const auto points = expand_points(spec);
  ASSERT_EQ(points.size(), 4u);
  for (const CampaignPoint& point : points) {
    EXPECT_EQ(point.cell, 0u);
    EXPECT_TRUE(point.axis_values.empty());
  }
}

TEST(CampaignExpandTest, ManifestPathsAreZeroPadded) {
  const CampaignSpec spec = parse_campaign(kSweepSpec, "test.json");
  EXPECT_EQ(point_manifest_path(spec, 0), "sweep.point_0000.manifest.json");
  EXPECT_EQ(point_manifest_path(spec, 11), "sweep.point_0011.manifest.json");
}

}  // namespace
}  // namespace cavenet::spec
