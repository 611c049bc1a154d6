// Pins the network-stack ablations that run as campaign specs: for every
// point of each examples/specs campaign, run at --jobs 4, the point
// manifest and the campaign CSV must report exactly what the ablation's
// own config loop (replicated inline, axes in the same order) computes
// serially at the campaign's seed. Every cell of the replication shares
// that seed, so each sweep is a paired comparison.
#include <filesystem>
#include <fstream>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "core/grid_road.h"
#include "obs/run_manifest.h"
#include "scenario/table1.h"
#include "spec/campaign.h"
#include "spec/engine.h"
#include "trace/trace_generator.h"
#include "util/table_writer.h"

#include <gtest/gtest.h>

namespace cavenet::spec {
namespace {

namespace fs = std::filesystem;
using scenario::Propagation;
using scenario::Protocol;
using scenario::SenderRunResult;
using scenario::TableIConfig;

/// One ablation: the checked-in spec and the config loop that computes
/// cell `cell` from a Table-I config already carrying the campaign seed.
struct Ablation {
  const char* name;
  const char* spec_path;
  std::size_t cells;
  std::function<SenderRunResult(TableIConfig, std::size_t)> run_cell;
};

// Names the parameter in test listings (instead of its bytes).
void PrintTo(const Ablation& ablation, std::ostream* out) {
  *out << ablation.name;
}

// The urban ablation's 3x3 signalized grid, 48 vehicles.
trace::MobilityTrace urban_trace(std::uint64_t seed) {
  ca::GridRoad grid({.horizontal_lanes = 3,
                     .vertical_lanes = 3,
                     .block_cells = 60,
                     .vehicles_per_lane = 8,
                     .slowdown_p = 0.3,
                     .green_period_steps = 20,
                     .seed = seed});
  trace::TraceGeneratorOptions options;
  options.steps = 100;
  options.pre_step = [&grid](ca::Road& road) { grid.apply_signals(road); };
  return trace::generate_trace(grid.road(), options);
}

const Protocol kAodvDymo[] = {Protocol::kAodv, Protocol::kDymo};
const Protocol kPaperThree[] = {Protocol::kAodv, Protocol::kOlsr,
                                Protocol::kDymo};

const Ablation kAblations[] = {
    {"rts_cts", CAVENET_SPEC_DIR "/ablation_rts_cts.json", 8,
     [](TableIConfig config, std::size_t cell) {
       const netsim::NodeId senders[] = {2, 4, 6, 8};
       config.protocol = Protocol::kAodv;
       config.sender = senders[cell / 2];
       config.use_rts_cts = cell % 2 == 1;
       return scenario::run_table1(config);
     }},
    {"mac_rate", CAVENET_SPEC_DIR "/ablation_mac_rate.json", 6,
     [](TableIConfig config, std::size_t cell) {
       const double rates_mbps[] = {1.0, 2.0, 11.0};
       config.protocol = kAodvDymo[cell % 2];
       config.sender = 5;
       config.mac_rate_bps = rates_mbps[cell / 2] * 1e6;
       return scenario::run_table1(config);
     }},
    {"propagation", CAVENET_SPEC_DIR "/ablation_propagation.json", 8,
     [](TableIConfig config, std::size_t cell) {
       const Propagation models[] = {
           Propagation::kTwoRayGround, Propagation::kFreeSpace,
           Propagation::kShadowing, Propagation::kRayleigh};
       config.protocol = kAodvDymo[cell % 2];
       config.sender = 4;
       config.propagation = models[cell / 2];
       return scenario::run_table1(config);
     }},
    {"hello_interval", CAVENET_SPEC_DIR "/ablation_hello_interval.json", 6,
     [](TableIConfig config, std::size_t cell) {
       const std::int64_t hellos_s[] = {1, 2, 4};
       config.protocol = kAodvDymo[cell % 2];
       config.sender = 5;
       const SimTime hello = SimTime::seconds(hellos_s[cell / 2]);
       config.protocol_options.aodv.hello_interval = hello;
       config.protocol_options.dymo.hello_interval = hello;
       return scenario::run_table1(config);
     }},
    {"offered_load", CAVENET_SPEC_DIR "/ablation_offered_load.json", 12,
     [](TableIConfig config, std::size_t cell) {
       const double rates[] = {1.0, 5.0, 15.0, 40.0};
       config.protocol = kPaperThree[cell / 4];
       config.sender = 4;
       config.packets_per_second = rates[cell % 4];
       return scenario::run_table1(config);
     }},
    {"boundary", CAVENET_SPEC_DIR "/ablation_boundary.json", 16,
     [](TableIConfig config, std::size_t cell) {
       config.protocol = Protocol::kAodv;
       config.circular_layout = cell / 8 == 0;
       config.sender = static_cast<netsim::NodeId>(cell % 8 + 1);
       return scenario::run_table1(config);
     }},
    {"dsdv_baseline", CAVENET_SPEC_DIR "/ablation_dsdv_baseline.json", 32,
     [](TableIConfig config, std::size_t cell) {
       const Protocol protocols[] = {Protocol::kAodv, Protocol::kOlsr,
                                     Protocol::kDymo, Protocol::kDsdv};
       config.protocol = protocols[cell / 8];
       config.sender = static_cast<netsim::NodeId>(cell % 8 + 1);
       return scenario::run_table1(config);
     }},
    {"urban_environment", CAVENET_SPEC_DIR "/urban_environment.json", 6,
     [](TableIConfig config, std::size_t cell) {
       config.protocol = kPaperThree[cell / 2];
       config.sender = 4;
       if (cell % 2 == 0) return scenario::run_table1(config);
       return scenario::run_with_trace(urban_trace(config.seed), config, {4})
           .front();
     }},
};

/// The campaign CSV's metric columns (its last columns), in order.
const std::vector<std::string> kMetrics = {
    "tx_packets", "rx_packets", "pdr", "mean_delay_s", "mean_hop_count",
    "control_packets", "control_bytes", "mac_collisions", "mac_retries",
    "channel_utilization", "route_discoveries"};

std::vector<double> metric_values(const SenderRunResult& r) {
  return {static_cast<double>(r.tx_packets),
          static_cast<double>(r.rx_packets), r.pdr, r.mean_delay_s,
          r.mean_hop_count, static_cast<double>(r.control_packets),
          static_cast<double>(r.control_bytes),
          static_cast<double>(r.mac_collisions),
          static_cast<double>(r.mac_retries), r.channel_utilization,
          static_cast<double>(r.route_discoveries)};
}

/// The last `n` comma-separated fields of a CSV line (metric cells never
/// contain commas, even when a swept axis value is a quoted object).
std::vector<std::string> last_fields(std::string line, std::size_t n) {
  std::vector<std::string> fields(n);
  for (std::size_t i = n; i-- > 0;) {
    const std::size_t comma = line.rfind(',');
    fields[i] = line.substr(comma + 1);  // npos + 1 == 0: the whole line
    line.resize(comma == std::string::npos ? 0 : comma);
  }
  return fields;
}

class AblationEquivalenceTest : public ::testing::TestWithParam<Ablation> {};

TEST_P(AblationEquivalenceTest, CampaignMatchesTheAblationLoopAtItsSeed) {
  const Ablation& ablation = GetParam();
  const CampaignSpec spec = load_campaign_file(ablation.spec_path);
  const auto points = expand_points(spec);
  ASSERT_EQ(points.size(), ablation.cells);
  const std::uint64_t seed = points.front().scenario.config.seed;
  for (const CampaignPoint& point : points) {
    ASSERT_EQ(point.replication, 0u);
    EXPECT_EQ(point.scenario.config.seed, seed)
        << "point " << point.index << " left the replication's seed";
  }

  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("ablation_" + std::string(ablation.name));
  fs::remove_all(dir);
  RunOptions options;
  options.jobs = 4;
  options.output_dir = dir.string();
  ASSERT_EQ(run_spec(spec, options), 0);

  std::ifstream csv(dir / spec.outputs.csv);
  std::vector<std::string> lines;
  for (std::string line; std::getline(csv, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), points.size() + 1);

  EXPECT_EQ(last_fields(lines.front(), kMetrics.size()), kMetrics);

  TableIConfig base;
  base.seed = seed;
  for (const CampaignPoint& point : points) {
    const auto values = metric_values(ablation.run_cell(base, point.cell));
    const auto cells = last_fields(lines[point.index + 1], kMetrics.size());
    const obs::RunManifest manifest = obs::RunManifest::read_file(
        (dir / point_manifest_path(spec, point.index)).string());
    for (std::size_t m = 0; m < kMetrics.size(); ++m) {
      const std::string where =
          "point " + std::to_string(point.index) + " " + kMetrics[m];
      EXPECT_EQ(manifest.metric(kMetrics[m], -1.0), values[m]) << where;
      EXPECT_EQ(cells[m], format_cell(values[m])) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, AblationEquivalenceTest, ::testing::ValuesIn(kAblations),
    [](const ::testing::TestParamInfo<Ablation>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace cavenet::spec
