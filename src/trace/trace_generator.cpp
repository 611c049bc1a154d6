#include "trace/trace_generator.h"

#include <stdexcept>

namespace cavenet::trace {

MobilityTrace generate_trace(ca::Road& road,
                             const TraceGeneratorOptions& options) {
  if (options.steps < 0) throw std::invalid_argument("steps must be >= 0");
  MobilityTrace trace;

  const Vec2 delta{options.delta_offset, options.delta_offset};
  auto prev = road.states();
  trace.initial_positions.reserve(prev.size());
  for (const auto& s : prev) trace.initial_positions.push_back(s.position + delta);

  // All lanes share dt by construction of the scenario; take lane 0's.
  const double dt = road.lane_count() > 0 ? road.lane(0).params().dt_s : 1.0;

  for (std::int64_t n = 0; n < options.steps; ++n) {
    if (options.pre_step) options.pre_step(road);
    road.step();
    const auto next = road.states();
    const double depart_s = static_cast<double>(n) * dt;
    for (std::size_t i = 0; i < next.size(); ++i) {
      const Vec2 from = prev[i].position + delta;
      const Vec2 to = next[i].position + delta;
      const double dist = distance(from, to);
      if (options.skip_idle && dist == 0.0) continue;

      TraceEvent ev;
      ev.node = next[i].node_id;
      ev.target = to;
      const bool discontinuous = next[i].wrapped_this_step &&
                                 !road.geometry(next[i].lane).wrap_continuous();
      if (discontinuous) {
        // A straight-line lane wrapped: the node teleports at arrival time.
        ev.kind = TraceEvent::Kind::kSetPosition;
        ev.time_s = depart_s + dt;
        ev.speed_ms = 0.0;
      } else {
        ev.kind = TraceEvent::Kind::kSetDest;
        ev.time_s = depart_s;
        ev.speed_ms = dist / dt;
      }
      trace.events.push_back(ev);
    }
    prev = next;
  }
  trace.normalize();
  return trace;
}

}  // namespace cavenet::trace
