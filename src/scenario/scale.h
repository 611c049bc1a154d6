// Large-N scaling scenario: the Table-I protocol stack at constant
// vehicle density on proportionally longer circuits (30 vehicles / 3000 m
// scaled up to hundreds or thousands of nodes), instrumented to answer
// "what does one transmission cost as the network grows": events
// dispatched, receive-power evaluations performed vs culled by the
// channel's spatial index, and kernel wall time per component.
#ifndef CAVENET_SCENARIO_SCALE_H
#define CAVENET_SCENARIO_SCALE_H

#include <cstdint>
#include <span>
#include <vector>

#include "obs/stats_registry.h"
#include "scenario/obs_hooks.h"
#include "scenario/table1.h"

namespace cavenet::scenario {

struct ScaleConfig {
  Protocol protocol = Protocol::kAodv;
  std::int32_t vehicles = 1000;
  /// Lane cells per vehicle; the Table-I density (400 cells / 30
  /// vehicles at 7.5 m per cell = 10 veh/km) is kept as N grows so the
  /// neighbourhood a transmission reaches stays scenario-realistic.
  double cells_per_vehicle = 400.0 / 30.0;
  double slowdown_p = 0.7;

  // One CBR flow, Table-I shaped, across the scaled circuit.
  netsim::NodeId receiver = 0;
  netsim::NodeId sender = 1;
  double packets_per_second = 5.0;
  std::size_t payload_bytes = 512;
  double traffic_start_s = 5.0;

  double duration_s = 30.0;
  std::uint64_t seed = 1;
  phy::ChannelIndex channel_index = phy::ChannelIndex::kGrid;

  /// Shared with TableIConfig. When obs.stats is null, run_scale records
  /// into a private registry so the channel-index counters below are
  /// always measured; when obs.profiler is null, a private kernel
  /// profiler is attached for the same reason.
  ObsHooks obs;
};

/// One scale point's outcome: the flow result plus the cost measurements
/// the sweep exists for.
struct ScaleRunResult {
  std::int32_t vehicles = 0;
  Protocol protocol = Protocol::kAodv;
  SenderRunResult flow;

  std::uint64_t transmissions = 0;      ///< chan.tx
  std::uint64_t rx_power_evaluated = 0; ///< chan.evaluated
  std::uint64_t rx_power_culled = 0;    ///< chan.culled
  /// (evaluated + culled) / evaluated: how many receive-power
  /// evaluations a full O(N) fan-out would have cost per one actually
  /// performed. 1.0 means no culling.
  double cull_factor = 1.0;

  double kernel_wall_ms = 0.0;  ///< handler wall time (kernel profiler)
  double wall_s = 0.0;          ///< whole-run wall clock
  obs::StatsSnapshot stats;     ///< full registry snapshot of this run
};

/// Runs one scale point. Deterministic given (config, build) except for
/// the wall-clock fields.
ScaleRunResult run_scale(const ScaleConfig& config);

/// Runs a sweep of scale points, fanned across an EnsembleRunner pool
/// (`jobs` <= 0 means one worker per hardware thread). Results are in
/// config order and bitwise-identical for every jobs value (wall-clock
/// fields aside). Configs wiring a serial sink (packet log, trace,
/// profiler) force jobs = 1.
std::vector<ScaleRunResult> run_scale_sweep(std::span<const ScaleConfig> sweep,
                                            int jobs = 1);

}  // namespace cavenet::scenario

#endif  // CAVENET_SCENARIO_SCALE_H
