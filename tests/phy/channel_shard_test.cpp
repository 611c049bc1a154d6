// Channel strip units: plan validation, the derived strip count, the
// kLinear/too-small one-strip rules, strip diagnostics, the opt-in
// shard.* counters, and cross-strip delivery. Observable behaviour (who
// receives what) must be identical at any strip count.
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "obs/stats_registry.h"
#include "phy/channel.h"
#include "phy/wifi_phy.h"

namespace cavenet::phy {
namespace {

using netsim::Packet;

struct ShardFixture {
  explicit ShardFixture(ChannelIndex index = ChannelIndex::kGrid)
      : channel(sim, std::make_unique<TwoRayGroundModel>(), index) {}

  netsim::Simulator sim{1};
  Channel channel;
  std::vector<std::unique_ptr<netsim::StaticMobility>> mobilities;
  std::vector<std::unique_ptr<WifiPhy>> radios;
  std::vector<Channel::Attachment> links;

  WifiPhy& add_radio(Vec2 position) {
    mobilities.push_back(std::make_unique<netsim::StaticMobility>(position));
    radios.push_back(std::make_unique<WifiPhy>(
        sim, static_cast<netsim::NodeId>(radios.size()),
        mobilities.back().get()));
    links.push_back(channel.attach(radios.back().get()));
    return *radios.back();
  }

  int count_deliveries(WifiPhy& tx) {
    int count = 0;
    for (auto& radio : radios) {
      radio->set_receive_callback([&count](Packet, double) { ++count; });
    }
    tx.transmit(Packet(64));
    sim.run();
    return count;
  }

  static ShardPlan plan(double x_min, double x_max) {
    ShardPlan p;
    p.x_min = x_min;
    p.x_max = x_max;
    p.max_speed_mps = 0.0;  // static radios
    return p;
  }
};

/// Max-interaction radius of a default radio under two-ray ground (~550 m).
double default_radius() {
  const WaveLanProfile profile;
  return *TwoRayGroundModel().max_range_m(profile.tx_power_w,
                                          profile.cs_threshold_w);
}

TEST(ChannelShardTest, ConfigureShardsValidatesPlan) {
  ShardFixture f;
  ShardPlan p = ShardFixture::plan(0.0, 100.0);
  p.max_speed_mps = -1.0;
  EXPECT_THROW(f.channel.configure_shards(p), std::invalid_argument);
  // An empty extent is no error: it simply holds one strip.
  f.channel.configure_shards(ShardFixture::plan(100.0, 100.0));
  WifiPhy& tx = f.add_radio({100, 0});
  f.add_radio({150, 0});
  EXPECT_EQ(f.count_deliveries(tx), 1);
  EXPECT_EQ(f.channel.shard_diagnostics().strips, 1u);
}

TEST(ChannelShardTest, StripCountIsExtentOverRadius) {
  // floor(extent / radius), at least one: the only rule, no knob.
  const double r = default_radius();
  for (const double widths : {0.5, 1.9, 2.01, 7.3}) {
    ShardFixture f;
    f.channel.configure_shards(ShardFixture::plan(0.0, widths * r));
    WifiPhy& tx = f.add_radio({0, 0});
    f.add_radio({100, 0});
    EXPECT_EQ(f.count_deliveries(tx), 1);
    EXPECT_EQ(f.channel.shard_diagnostics().strips,
              static_cast<std::uint32_t>(std::max(1.0, std::floor(widths))))
        << "extent " << widths << " radii";
  }
}

TEST(ChannelShardTest, SingleShardPlanStaysDormant) {
  // One strip holds every radio whatever it does: membership is bucketed
  // once and never rebucketed by the clock, only by churn.
  ShardFixture f;
  f.channel.configure_shards(ShardFixture::plan(0.0, 1.5 * default_radius()));
  WifiPhy& tx = f.add_radio({0, 0});
  f.add_radio({100, 0});
  EXPECT_EQ(f.count_deliveries(tx), 1);
  f.sim.run_until(SimTime::from_seconds(5.0));
  EXPECT_EQ(f.count_deliveries(tx), 1);
  EXPECT_EQ(f.channel.shard_diagnostics().strips, 1u);
  EXPECT_EQ(f.channel.shard_diagnostics().epochs, 1u);
}

TEST(ChannelShardTest, LinearIndexNeverShards) {
  // kLinear is the brute-force reference the strip path is compared
  // against; a plan on it must be ignored, not applied.
  ShardFixture f(ChannelIndex::kLinear);
  f.channel.configure_shards(ShardFixture::plan(0.0, 2000.0));
  WifiPhy& tx = f.add_radio({0, 0});
  f.add_radio({100, 0});
  EXPECT_EQ(f.count_deliveries(tx), 1);
  EXPECT_EQ(f.channel.shard_diagnostics().strips, 1u);
}

TEST(ChannelShardTest, TooSmallWorldFallsBackToOneStrip) {
  // The extent holds fewer than two interaction-radius-wide strips, so
  // splitting buys nothing and the channel keeps one strip.
  ShardFixture f;
  f.channel.configure_shards(ShardFixture::plan(0.0, 120.0));
  WifiPhy& tx = f.add_radio({0, 0});
  f.add_radio({100, 0});
  EXPECT_EQ(f.count_deliveries(tx), 1);
  EXPECT_EQ(f.channel.shard_diagnostics().strips, 1u);
}

TEST(ChannelShardTest, ShardedDeliveriesMatchUnsharded) {
  // With a plan (several strips), without one (one strip), and through
  // the kLinear full scan: the same radios receive.
  const auto deliveries = [](bool plan, ChannelIndex index) {
    ShardFixture f(index);
    if (plan) f.channel.configure_shards(ShardFixture::plan(0.0, 2000.0));
    WifiPhy* tx = nullptr;
    for (double x = 0.0; x < 2000.0; x += 80.0) {
      WifiPhy& radio = f.add_radio({x, 0});
      if (x == 560.0) tx = &radio;
    }
    return f.count_deliveries(*tx);
  };
  const int linear = deliveries(false, ChannelIndex::kLinear);
  EXPECT_GT(linear, 0);
  EXPECT_EQ(deliveries(false, ChannelIndex::kGrid), linear);
  EXPECT_EQ(deliveries(true, ChannelIndex::kGrid), linear);
}

TEST(ChannelShardTest, DiagnosticsRecordEpochsAndRefreshes) {
  ShardFixture f;
  f.channel.configure_shards(ShardFixture::plan(0.0, 2000.0));
  WifiPhy& tx = f.add_radio({500, 0});
  f.add_radio({600, 0});
  f.add_radio({1900, 0});  // far strip: never refreshed by this transmit
  f.count_deliveries(tx);
  const Channel::ShardDiagnostics diag = f.channel.shard_diagnostics();
  EXPECT_GE(diag.strips, 2u);
  EXPECT_GE(diag.epochs, 1u);
  EXPECT_GT(diag.refreshed, 0u);
  // Several strips rebucket on the clock (ShardMap::kEpochS).
  f.sim.run_until(SimTime::from_seconds(2.5));
  f.count_deliveries(tx);
  EXPECT_GT(f.channel.shard_diagnostics().epochs, diag.epochs);
}

TEST(ChannelShardTest, CrossStripDeliveryReachesTheNeighbourStrip) {
  ShardFixture f;
  f.channel.configure_shards(ShardFixture::plan(0.0, 2000.0));
  // Both radios within range but on opposite sides of the first strip
  // boundary (three strips over 2000 m).
  WifiPhy& tx = f.add_radio({630, 0});
  f.add_radio({700, 0});
  EXPECT_EQ(f.count_deliveries(tx), 1);
  EXPECT_EQ(f.channel.shard_diagnostics().strips, 3u);
}

TEST(ChannelShardTest, BindShardStatsPublishesOptInCounters) {
  ShardFixture f;
  f.channel.configure_shards(ShardFixture::plan(0.0, 2000.0));
  WifiPhy& tx = f.add_radio({960, 0});
  f.add_radio({1040, 0});
  f.count_deliveries(tx);

  // Binding after the fact re-publishes the activity so far.
  obs::StatsRegistry registry;
  f.channel.bind_shard_stats(registry);
  const obs::StatsSnapshot snap = registry.snapshot();
  EXPECT_GE(snap.counter("shard.lbts_epochs"), 1u);
  EXPECT_GT(snap.counter("shard.refresh.nodes"), 0u);
}

TEST(ChannelShardTest, AttachChurnInvalidatesAndRecovers) {
  ShardFixture f;
  f.channel.configure_shards(ShardFixture::plan(0.0, 2000.0));
  WifiPhy& tx = f.add_radio({500, 0});
  f.add_radio({600, 0});
  EXPECT_EQ(f.count_deliveries(tx), 1);
  // Churn: a new radio appears, another leaves; the next transmit must
  // rebucket (fresh epoch) and keep delivering correctly.
  f.add_radio({650, 0});
  f.links[1].detach();
  const std::uint64_t epochs_before = f.channel.shard_diagnostics().epochs;
  EXPECT_EQ(f.count_deliveries(tx), 1);  // only the new radio remains in range
  EXPECT_GT(f.channel.shard_diagnostics().epochs, epochs_before);
}

}  // namespace
}  // namespace cavenet::phy
