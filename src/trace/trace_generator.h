// Generates a mobility trace by stepping a CA road (BA -> trace stage).
#ifndef CAVENET_TRACE_TRACE_GENERATOR_H
#define CAVENET_TRACE_TRACE_GENERATOR_H

#include <cstdint>
#include <functional>

#include "core/road.h"
#include "trace/mobility_trace.h"

namespace cavenet::trace {

struct TraceGeneratorOptions {
  /// Simulated duration in CA steps.
  std::int64_t steps = 100;
  /// Coordinate offset Delta added to every absolute position. The paper
  /// (footnote 3) uses it to dodge an ns-2 bug triggered by coordinate 0.
  double delta_offset = 1.0;
  /// Emit no event for a node whose position does not change this step.
  bool skip_idle = true;
  /// Invoked before every road step — controllers (traffic signals, grid
  /// coordinators) update their blocked cells here.
  std::function<void(ca::Road&)> pre_step;
};

/// Steps `road` options.steps times and records one waypoint per moving
/// vehicle per step. Wrap-around on a geometry that is not wrap-continuous
/// (straight line) is emitted as an instantaneous set-position event; on a
/// circular geometry the chord across the wrap is an ordinary setdest.
MobilityTrace generate_trace(ca::Road& road, const TraceGeneratorOptions& options);

}  // namespace cavenet::trace

#endif  // CAVENET_TRACE_TRACE_GENERATOR_H
