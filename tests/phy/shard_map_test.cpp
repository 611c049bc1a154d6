// ShardMap units: strip assignment, epoch/rebucket lifecycle, the
// conservative drift margin, and the certified-speed-bound safety net.
#include "phy/shard_map.h"

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "util/sim_time.h"
#include "util/vec2.h"

namespace cavenet::phy {
namespace {

using namespace cavenet::literals;

TEST(ShardMapTest, UnconfiguredIsInert) {
  ShardMap map;
  EXPECT_FALSE(map.configured());
  EXPECT_EQ(map.strips(), 0u);
  EXPECT_EQ(map.strip_of_slot(0), ShardMap::kNoStrip);
  EXPECT_EQ(map.margin_at(5_s), 0.0);
}

TEST(ShardMapTest, StripOfXClampsToPartition) {
  ShardMap map;
  map.configure(4, 0.0, 1000.0, 10.0);
  EXPECT_EQ(map.strips(), 4u);
  EXPECT_EQ(map.strip_of_x(-50.0), 0u);    // below x_min
  EXPECT_EQ(map.strip_of_x(0.0), 0u);
  EXPECT_EQ(map.strip_of_x(260.0), 1u);
  EXPECT_EQ(map.strip_of_x(999.0), 3u);
  EXPECT_EQ(map.strip_of_x(5000.0), 3u);   // above x_max
}

TEST(ShardMapTest, RebucketAssignsMembersInAscendingSlotOrder) {
  ShardMap map;
  map.configure(2, 0.0, 1000.0, 10.0);
  const std::vector<Vec2> positions{{900, 0}, {100, 0}, {800, 0}, {200, 0}};
  const std::vector<std::uint8_t> live{1, 1, 1, 1};
  EXPECT_TRUE(map.needs_rebucket(SimTime::zero()));
  map.rebucket(SimTime::zero(), positions, live);
  EXPECT_EQ(map.epochs(), 1u);
  EXPECT_FALSE(map.needs_rebucket(SimTime::zero()));
  EXPECT_EQ(map.strip_of_slot(0), 1u);
  EXPECT_EQ(map.strip_of_slot(1), 0u);
  EXPECT_EQ(map.members(0), (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(map.members(1), (std::vector<std::uint32_t>{0, 2}));
}

TEST(ShardMapTest, DeadSlotsGetNoStrip) {
  ShardMap map;
  map.configure(2, 0.0, 100.0, 0.0);
  const std::vector<Vec2> positions{{10, 0}, {90, 0}};
  const std::vector<std::uint8_t> live{1, 0};
  map.rebucket(SimTime::zero(), positions, live);
  EXPECT_EQ(map.strip_of_slot(0), 0u);
  EXPECT_EQ(map.strip_of_slot(1), ShardMap::kNoStrip);
  EXPECT_TRUE(map.members(1).empty());
}

TEST(ShardMapTest, EpochElapsingForcesRebucket) {
  ShardMap map;
  map.configure(2, 0.0, 100.0, 0.0);
  const std::vector<Vec2> positions{{10, 0}};
  const std::vector<std::uint8_t> live{1};
  map.rebucket(SimTime::zero(), positions, live);
  EXPECT_FALSE(
      map.needs_rebucket(SimTime::from_seconds(0.9 * ShardMap::kEpochS)));
  EXPECT_TRUE(map.needs_rebucket(SimTime::from_seconds(ShardMap::kEpochS)));
}

TEST(ShardMapTest, SingleStripHasNoEpochAndNoDriftCertificate) {
  // One strip holds every live slot whatever it does (teleports
  // included), so the clock never forces a rebucket and a rebucket never
  // verifies drift.
  ShardMap map;
  map.configure(1, 0.0, 0.0, 0.0);
  std::vector<Vec2> positions{{10, 0}, {20, 0}};
  const std::vector<std::uint8_t> live{1, 1};
  map.rebucket(SimTime::zero(), positions, live);
  EXPECT_FALSE(map.needs_rebucket(SimTime::from_seconds(100.0)));
  positions[0] = {5000, 0};  // a teleport: no speed bound to violate
  map.rebucket(1_s, positions, live);
  EXPECT_EQ(map.members(0), (std::vector<std::uint32_t>{0, 1}));
}

TEST(ShardMapTest, MarginGrowsWithElapsedTimeAndSpeed) {
  ShardMap map;
  map.configure(2, 0.0, 1000.0, 20.0);
  const std::vector<Vec2> positions{{10, 0}};
  const std::vector<std::uint8_t> live{1};
  map.rebucket(2_s, positions, live);
  EXPECT_DOUBLE_EQ(map.margin_at(2_s), 0.0);
  EXPECT_DOUBLE_EQ(map.margin_at(SimTime::from_seconds(2.5)), 10.0);
}

TEST(ShardMapTest, SpeedBoundViolationThrows) {
  // A slot displacing faster than the certified bound between epochs is a
  // broken certificate (e.g. an unexpected teleport) — fail loudly rather
  // than silently missing deliveries.
  ShardMap map;
  map.configure(2, 0.0, 1000.0, 5.0);
  std::vector<Vec2> positions{{10, 0}};
  const std::vector<std::uint8_t> live{1};
  map.rebucket(SimTime::zero(), positions, live);
  positions[0] = {900, 0};  // 890 m in 1 s >> 5 m/s
  EXPECT_THROW(map.rebucket(1_s, positions, live), std::logic_error);
}

TEST(ShardMapTest, BoundedDriftRebucketsCleanly) {
  ShardMap map;
  map.configure(2, 0.0, 1000.0, 5.0);
  std::vector<Vec2> positions{{498, 0}};
  const std::vector<std::uint8_t> live{1};
  map.rebucket(SimTime::zero(), positions, live);
  EXPECT_EQ(map.strip_of_slot(0), 0u);
  positions[0] = {502, 0};  // 4 m in 1 s, crosses the strip boundary
  map.rebucket(1_s, positions, live);
  EXPECT_EQ(map.strip_of_slot(0), 1u);
  EXPECT_EQ(map.epochs(), 2u);
}

TEST(ShardMapTest, InvalidateSkipsDriftVerification) {
  // After churn there is no trusted anchor; the next rebucket must accept
  // any placement instead of throwing.
  ShardMap map;
  map.configure(2, 0.0, 1000.0, 5.0);
  std::vector<Vec2> positions{{10, 0}};
  const std::vector<std::uint8_t> live{1};
  map.rebucket(SimTime::zero(), positions, live);
  map.invalidate();
  EXPECT_TRUE(map.needs_rebucket(SimTime::zero()));
  positions[0] = {900, 0};
  map.rebucket(1_s, positions, live);
  EXPECT_EQ(map.strip_of_slot(0), 1u);
}

}  // namespace
}  // namespace cavenet::phy
