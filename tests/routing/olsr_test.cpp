#include "routing/olsr.h"

#include <gtest/gtest.h>

#include "routing/testbed.h"

namespace cavenet::routing::olsr {
namespace {

using namespace cavenet::literals;
using test::Testbed;

Testbed::ProtocolFactory olsr_factory(OlsrParams params = {}) {
  return [params](netsim::Simulator& sim, netsim::LinkLayer& link) {
    return std::make_unique<OlsrProtocol>(sim, link, params);
  };
}

TEST(OlsrHeadersTest, SizesScaleWithContent) {
  HelloHeader hello;
  EXPECT_EQ(hello.size_bytes(), 16u);
  hello.neighbors.push_back({1, LinkCode::kSym, 0});
  hello.neighbors.push_back({2, LinkCode::kMpr, 0});
  EXPECT_EQ(hello.size_bytes(), 32u);
  TcHeader tc;
  EXPECT_EQ(tc.size_bytes(), 16u);
  tc.advertised.push_back({1, 0});
  EXPECT_EQ(tc.size_bytes(), 24u);
}

TEST(OlsrTest, SymmetricLinkHandshake) {
  Testbed bed;
  bed.add_chain(2, 150.0, olsr_factory());
  bed.start_all();
  bed.sim.run_until(3_s);
  auto& a = dynamic_cast<OlsrProtocol&>(bed.router(0));
  auto& b = dynamic_cast<OlsrProtocol&>(bed.router(1));
  EXPECT_EQ(a.symmetric_neighbors(), std::vector<netsim::NodeId>{1});
  EXPECT_EQ(b.symmetric_neighbors(), std::vector<netsim::NodeId>{0});
}

TEST(OlsrTest, OneHopRouteFromHellosAlone) {
  Testbed bed;
  bed.add_chain(2, 150.0, olsr_factory());
  bed.start_all();
  bed.sim.run_until(3_s);
  const RouteEntry* route = bed.router(0).table().lookup(1, bed.sim.now());
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->next_hop, 1u);
  EXPECT_EQ(route->hop_count, 1u);
}

TEST(OlsrTest, TwoHopRouteViaHelloNeighborLists) {
  Testbed bed;
  bed.add_chain(3, 200.0, olsr_factory());
  bed.start_all();
  bed.sim.run_until(4_s);
  const RouteEntry* route = bed.router(0).table().lookup(2, bed.sim.now());
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->next_hop, 1u);
  EXPECT_EQ(route->hop_count, 2u);
}

TEST(OlsrTest, MiddleNodeBecomesMpr) {
  Testbed bed;
  bed.add_chain(3, 200.0, olsr_factory());
  bed.start_all();
  bed.sim.run_until(5_s);
  auto& a = dynamic_cast<OlsrProtocol&>(bed.router(0));
  // Node 1 is node 0's only path to node 2: it must be selected as MPR.
  EXPECT_TRUE(a.mpr_set().contains(1));
}

TEST(OlsrTest, MultiHopRoutesViaTcFlooding) {
  Testbed bed;
  bed.add_chain(5, 200.0, olsr_factory());
  bed.start_all();
  bed.sim.run_until(10_s);  // several TC rounds
  const RouteEntry* route = bed.router(0).table().lookup(4, bed.sim.now());
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->next_hop, 1u);
  EXPECT_EQ(route->hop_count, 4u);
}

TEST(OlsrTest, DataDeliveryOverFourHops) {
  Testbed bed;
  bed.add_chain(5, 200.0, olsr_factory());
  bed.start_all();
  bed.sim.schedule(8_s, [&] { bed.send_data(0, 4); });
  bed.sim.run_until(12_s);
  EXPECT_EQ(bed.delivered_to(4), 1u);
}

TEST(OlsrTest, SendBeforeConvergenceIsDropped) {
  Testbed bed;
  bed.add_chain(4, 200.0, olsr_factory());
  bed.start_all();
  // Immediately: no routes yet -> proactive drop, no buffering.
  bed.send_data(0, 3);
  bed.sim.run_until(10_s);
  EXPECT_EQ(bed.delivered_to(3), 0u);
  EXPECT_EQ(bed.router(0).stats().drops_no_route, 1u);
}

TEST(OlsrTest, RoutesExpireWhenNodeDisappears) {
  Testbed bed;
  bed.add_chain(3, 200.0, olsr_factory());
  bed.start_all();
  bed.sim.run_until(6_s);
  ASSERT_NE(bed.router(0).table().lookup(2, bed.sim.now()), nullptr);
  // Node 2 vanishes.
  bed.mobility(2).move_to({0.0, 9000.0});
  bed.sim.run_until(20_s);
  EXPECT_EQ(bed.router(0).table().lookup(2, bed.sim.now()), nullptr);
}

TEST(OlsrTest, StarTopologySelectsHubAsMpr) {
  Testbed bed;
  // Hub at origin, 4 spokes 200 m out; spokes only reach each other via hub.
  bed.add_node({0, 0}, olsr_factory());
  bed.add_node({200, 0}, olsr_factory());
  bed.add_node({-200, 0}, olsr_factory());
  bed.add_node({0, 200}, olsr_factory());
  bed.add_node({0, -200}, olsr_factory());
  bed.start_all();
  bed.sim.run_until(6_s);
  for (netsim::NodeId spoke = 1; spoke <= 4; ++spoke) {
    auto& router = dynamic_cast<OlsrProtocol&>(bed.router(spoke));
    EXPECT_TRUE(router.mpr_set().contains(0)) << "spoke " << spoke;
    EXPECT_EQ(router.mpr_set().size(), 1u) << "spoke " << spoke;
  }
  // Spoke-to-spoke delivery through the hub (1 s from now).
  bed.sim.schedule(1_s, [&] { bed.send_data(1, 2); });
  bed.sim.run_until(9_s);
  EXPECT_EQ(bed.delivered_to(2), 1u);
}

TEST(OlsrTest, ControlOverheadGrowsWithTime) {
  Testbed bed;
  bed.add_chain(3, 200.0, olsr_factory());
  bed.start_all();
  bed.sim.run_until(5_s);
  const std::uint64_t at5 = bed.router(0).stats().control_packets_sent;
  bed.sim.run_until(10_s);
  const std::uint64_t at10 = bed.router(0).stats().control_packets_sent;
  EXPECT_GT(at5, 3u);
  EXPECT_GT(at10, at5);
}

TEST(OlsrTest, EtxModeComputesLinkQuality) {
  OlsrParams params;
  params.use_etx = true;
  params.etx_window = 4;
  Testbed bed;
  bed.add_chain(2, 150.0, olsr_factory(params));
  bed.start_all();
  bed.sim.run_until(15_s);  // several ETX windows
  auto& a = dynamic_cast<OlsrProtocol&>(bed.router(0));
  const double etx = a.link_etx(1);
  // Clean channel: ETX ~ 1.
  EXPECT_GE(etx, 1.0);
  EXPECT_LT(etx, 1.6);
  // And routes still work.
  ASSERT_NE(a.table().lookup(1, bed.sim.now()), nullptr);
}

/// Link layer whose received frames the test injects at chosen times.
class ScriptedLink final : public netsim::LinkLayer {
 public:
  explicit ScriptedLink(netsim::NodeId address) : address_(address) {}
  void send(netsim::Packet, netsim::NodeId) override {}
  void set_receive_callback(ReceiveCallback cb) override {
    receive_ = std::move(cb);
  }
  void set_tx_failed_callback(TxFailedCallback) override {}
  netsim::NodeId address() const override { return address_; }
  template <typename Header>
  void receive(const Header& header, netsim::NodeId from) {
    netsim::Packet packet(0);
    packet.push(header);
    receive_(std::move(packet), from);
  }

 private:
  netsim::NodeId address_;
  ReceiveCallback receive_;
};

TEST(OlsrTest, TcRefreshingAnExpiredTupleRestoresItsRoute) {
  // Node 0 hears only node 1; node 1's TCs advertise node 2, and one TC
  // from node 2 advertises node 3. That tuple expires at 6.3 s; a hello
  // at 6.35 s makes node 0 recompute without it, and a same-ANSN TC from
  // node 2 at 6.37 s (before node 0's timers erase the stale tuple)
  // brings it back. The route to node 3 must come back with it.
  netsim::Simulator sim(7);
  ScriptedLink link(0);
  OlsrProtocol router(sim, link);
  router.start();
  const auto at_ms = [&](std::int64_t ms, auto action) {
    sim.schedule_at(SimTime::milliseconds(ms), action);
  };
  HelloHeader hello;
  hello.origin = 1;
  hello.neighbors.push_back({0, LinkCode::kSym, 255});
  for (std::int64_t ms = 100; ms <= 8000; ms += 500) {
    at_ms(ms, [&] { link.receive(hello, 1); });
  }
  std::uint16_t seq = 0;
  for (std::int64_t ms = 200; ms <= 8000; ms += 2000) {
    at_ms(ms, [&] {
      TcHeader tc;
      tc.origin = 1;
      tc.message_seq = ++seq;
      tc.ansn = 1;
      tc.advertised.push_back({2, 255});
      link.receive(tc, 1);
    });
  }
  TcHeader far;
  far.origin = 2;
  far.ansn = 1;
  far.advertised.push_back({3, 255});
  far.message_seq = 1;
  at_ms(300, [&] { link.receive(far, 1); });
  sim.run_until(SimTime::milliseconds(1000));
  const RouteEntry* before = router.table().lookup(3, sim.now());
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->hop_count, 3u);

  at_ms(6350, [&] { link.receive(hello, 1); });
  sim.run_until(SimTime::milliseconds(6360));
  EXPECT_EQ(router.table().lookup(3, sim.now()), nullptr) << "tuple expired";

  far.message_seq = 2;
  at_ms(6370, [&] { link.receive(far, 1); });
  sim.run_until(SimTime::milliseconds(6380));
  const RouteEntry* after = router.table().lookup(3, sim.now());
  ASSERT_NE(after, nullptr) << "refreshed tuple left out of the table";
  EXPECT_EQ(after->next_hop, 1u);
  EXPECT_EQ(after->hop_count, 3u);
}

TEST(OlsrTest, EtxUnknownLinkIsInfinite) {
  Testbed bed;
  bed.add_node({0, 0}, olsr_factory());
  auto& a = dynamic_cast<OlsrProtocol&>(bed.router(0));
  EXPECT_TRUE(std::isinf(a.link_etx(42)));
}

}  // namespace
}  // namespace cavenet::routing::olsr
