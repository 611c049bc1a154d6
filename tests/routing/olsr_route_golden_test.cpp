// OLSR route-table identity gate: randomized mobile testbeds (hop-count
// and ETX routing, one HNA gateway) are stepped in 0.25 s increments and
// every node's complete routing table plus its HNA gateway choice is
// compared against a committed fixture. Route computation may get faster
// but never different: a table that lags a link or topology change by even
// one sample diverges here. The same sweep is checked a second time with
// every table and gateway read each 10 ms between samples: when a table is
// read must not change what it holds.
//
// Regenerate the fixture (only when a change *intentionally* alters OLSR
// routing behaviour) by running routing_tests once with
// CAVENET_REGEN_GOLDEN=1 and --gtest_filter='OlsrRouteGoldenTest.*'.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "routing/olsr.h"
#include "routing/testbed.h"
#include "util/rng.h"

#ifndef CAVENET_SOURCE_DIR
#error "CAVENET_SOURCE_DIR must be defined by the build"
#endif

namespace cavenet::routing::olsr {
namespace {

using test::Testbed;

const std::string kGoldenPath = std::string(CAVENET_SOURCE_DIR) +
                                "/tests/routing/golden_olsr_routes.txt";

constexpr netsim::NodeId kInternet = 1000;  // non-MANET pseudo-address
constexpr double kStepS = 0.25;

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct BedShape {
  int nodes;
  double length_m;     ///< x extent the nodes bounce within
  double width_m;      ///< y extent
  double max_speed;    ///< per-axis speed bound, m/s
  double duration_s;
  bool use_etx;
  bool gateway;        ///< node 0 advertises kInternet via HNA
  /// Chance per step that a node drops out of radio range for 1-10 s and
  /// then rejoins where its trajectory has taken it: links and topology
  /// tuples expire and come back around their hold times.
  double blink_p = 0.0;
};

Testbed::ProtocolFactory olsr_factory(bool use_etx) {
  OlsrParams params;
  params.use_etx = use_etx;
  params.etx_window = 5;
  return [params](netsim::Simulator& sim, netsim::LinkLayer& link) {
    return std::make_unique<OlsrProtocol>(sim, link, params);
  };
}

/// One sample of a testbed's route state: the number of valid routes
/// across all nodes and a hash of every node's full table (dst, next_hop,
/// hop_count, valid) and gateway choice.
std::string sample_line(int bed_index, int step, Testbed& bed, int nodes) {
  std::ostringstream tables;
  std::size_t valid_routes = 0;
  for (int i = 0; i < nodes; ++i) {
    auto& router =
        dynamic_cast<OlsrProtocol&>(bed.router(static_cast<netsim::NodeId>(i)));
    tables << 'n' << i;
    for (const auto& [dst, e] : router.table().entries()) {
      tables << ' ' << dst << ':' << e.next_hop << ':' << e.hop_count << ':'
             << e.valid;
      if (e.valid) ++valid_routes;
    }
    const auto gateway = router.gateway_for(kInternet);
    tables << " gw " << (gateway ? static_cast<long long>(*gateway) : -1)
           << '\n';
  }
  char line[128];
  std::snprintf(line, sizeof line, "bed %d t_ms %d routes %zu hash %016llx\n",
                bed_index, step * 250, valid_routes,
                static_cast<unsigned long long>(fnv1a(tables.str())));
  return line;
}

/// A testbed of bouncing (and optionally blinking) nodes, sampled once per
/// 0.25 s step. With read_every_ms > 0 the step is also run in slices of
/// that length, every node's table and gateway read after each one.
std::string dump_bed(int bed_index, const BedShape& shape, std::uint64_t seed,
                     int read_every_ms) {
  Rng rng(seed);
  const Testbed::ProtocolFactory factory = olsr_factory(shape.use_etx);
  Testbed bed(seed);
  std::vector<Vec2> home;
  std::vector<Vec2> velocity;
  std::vector<int> away_until(static_cast<std::size_t>(shape.nodes), 0);
  for (int i = 0; i < shape.nodes; ++i) {
    home.push_back(
        {rng.uniform(0.0, shape.length_m), rng.uniform(0.0, shape.width_m)});
    bed.add_node(home.back(), factory);
    velocity.push_back({rng.uniform(-shape.max_speed, shape.max_speed),
                        rng.uniform(-shape.max_speed, shape.max_speed) / 4});
  }
  if (shape.gateway) {
    dynamic_cast<OlsrProtocol&>(bed.router(0)).add_local_network(kInternet);
  }
  bed.start_all();

  std::ostringstream out;
  const int steps = static_cast<int>(shape.duration_s / kStepS);
  for (int step = 1; step <= steps; ++step) {
    // Bounce every node inside the box (or park it far away while it is
    // out of range), then advance the simulation.
    for (int i = 0; i < shape.nodes; ++i) {
      const auto id = static_cast<netsim::NodeId>(i);
      const auto k = static_cast<std::size_t>(i);
      Vec2& p = home[k];
      Vec2& v = velocity[k];
      p.x += v.x * kStepS;
      p.y += v.y * kStepS;
      if (p.x < 0.0 || p.x > shape.length_m) {
        v.x = -v.x;
        p.x = std::clamp(p.x, 0.0, shape.length_m);
      }
      if (p.y < 0.0 || p.y > shape.width_m) {
        v.y = -v.y;
        p.y = std::clamp(p.y, 0.0, shape.width_m);
      }
      if (away_until[k] < step && rng.bernoulli(shape.blink_p)) {
        away_until[k] = step + static_cast<int>(rng.uniform_int(
                                   std::int64_t{4}, std::int64_t{40}));
      }
      bed.mobility(id).move_to(away_until[k] >= step
                                   ? Vec2{p.x, p.y + 100000.0}
                                   : p);
    }
    for (int ms = read_every_ms; read_every_ms > 0 && ms < 250;
         ms += read_every_ms) {
      bed.sim.run_until(SimTime::milliseconds((step - 1) * 250 + ms));
      for (int i = 0; i < shape.nodes; ++i) {
        const auto& router = dynamic_cast<const OlsrProtocol&>(
            bed.router(static_cast<netsim::NodeId>(i)));
        router.table();
        router.gateway_for(kInternet);
      }
    }
    bed.sim.run_until(SimTime::milliseconds(step * 250));
    out << sample_line(bed_index, step, bed, shape.nodes);
  }
  return out.str();
}

/// The sweep under the gate, drawn from a fixed meta-seed so the fixture
/// and the checked run always agree on it.
std::string dump_all_beds(int read_every_ms = 0) {
  Rng meta(20261019);
  const BedShape shapes[] = {
      // Hop-count routing, HNA gateway at node 0.
      {14, 1400.0, 300.0, 25.0, 90.0, false, true},
      // ETX routing over the same kind of churn.
      {14, 1400.0, 300.0, 25.0, 90.0, true, false},
      // Denser and slower: long-lived links, topology tuples refreshed
      // around their hold time.
      {20, 1000.0, 400.0, 12.0, 90.0, false, false},
      // ETX with an HNA gateway.
      {16, 1200.0, 300.0, 20.0, 90.0, true, true},
      // Nodes dropping out and rejoining, hop-count and ETX routing.
      {16, 900.0, 300.0, 10.0, 90.0, false, true, 0.015},
      {16, 900.0, 300.0, 10.0, 90.0, true, false, 0.015},
  };
  std::string dump;
  int index = 0;
  for (const BedShape& shape : shapes) {
    dump += dump_bed(index++, shape, meta.uniform_int(std::uint64_t{1} << 32),
                     read_every_ms);
  }
  return dump;
}

/// Compares per line so a mismatch names the first drifted sample.
void expect_matches_fixture(const std::string& fresh) {
  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.is_open())
      << "missing fixture " << kGoldenPath
      << " — run once with CAVENET_REGEN_GOLDEN=1 to create it";
  std::stringstream golden;
  golden << in.rdbuf();

  std::istringstream fresh_lines(fresh);
  std::istringstream golden_lines(golden.str());
  std::string fresh_line, golden_line;
  std::size_t line_no = 0;
  while (std::getline(golden_lines, golden_line)) {
    ++line_no;
    ASSERT_TRUE(std::getline(fresh_lines, fresh_line))
        << "fresh dump ends early at fixture line " << line_no;
    EXPECT_EQ(fresh_line, golden_line) << "first divergence at fixture line "
                                       << line_no;
    if (fresh_line != golden_line) return;  // one divergence is enough
  }
  EXPECT_FALSE(std::getline(fresh_lines, fresh_line))
      << "fresh dump has extra lines beyond the fixture";
}

TEST(OlsrRouteGoldenTest, MobileTablesMatchGoldenFixture) {
  const std::string fresh = dump_all_beds();

  if (std::getenv("CAVENET_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot write " << kGoldenPath;
    out << fresh;
    GTEST_SKIP() << "fixture regenerated at " << kGoldenPath;
  }
  expect_matches_fixture(fresh);
}

TEST(OlsrRouteGoldenTest, ReadingTablesEvery10msMatchesGoldenFixture) {
  // Reads between the samples run pending route calculations early, close
  // to where they were marked; the 0.25 s samples must not move.
  expect_matches_fixture(dump_all_beds(10));
}

}  // namespace
}  // namespace cavenet::routing::olsr
