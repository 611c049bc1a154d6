// The simulation kernel: clock + scheduler + seeded RNG streams.
//
// Observability hooks (all optional, near-zero cost when unused):
//  - set_profiler(): wall-clock time per event handler, attributed to the
//    component label passed at schedule() time.
//  - set_trace_sink(): heartbeat counter tracks (events/sec, queue depth,
//    sim-time speedup) in Chrome trace_event form.
//  - enable_heartbeat(): periodic progress lines for long runs.
#ifndef CAVENET_NETSIM_SIMULATOR_H
#define CAVENET_NETSIM_SIMULATOR_H

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

#include "netsim/scheduler.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace cavenet::obs {
class KernelProfiler;
class StatsRegistry;
class TraceSink;
}  // namespace cavenet::obs

namespace cavenet::netsim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : seed_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return now_; }

  /// Schedules `action` after `delay` (>= 0) from now. The labeled
  /// overloads attribute the handler to `component` in kernel profiles;
  /// the label must point at static storage (pass a string literal).
  /// Templated so the callable lands directly in the scheduler pool's
  /// inline buffer — no std::function box on the way in.
  template <typename F>
    requires std::is_invocable_v<std::decay_t<F>&>
  EventId schedule(SimTime delay, F&& action) {
    return schedule(delay, {}, std::forward<F>(action));
  }
  template <typename F>
    requires std::is_invocable_v<std::decay_t<F>&>
  EventId schedule(SimTime delay, std::string_view component, F&& action) {
    if (delay < SimTime::zero()) {
      throw std::invalid_argument("negative delay: " + delay.to_string());
    }
    return scheduler_.schedule_at(now_ + delay, std::forward<F>(action),
                                  component);
  }
  /// Schedules at an absolute time (>= now).
  template <typename F>
    requires std::is_invocable_v<std::decay_t<F>&>
  EventId schedule_at(SimTime at, F&& action) {
    return schedule_at(at, {}, std::forward<F>(action));
  }
  template <typename F>
    requires std::is_invocable_v<std::decay_t<F>&>
  EventId schedule_at(SimTime at, std::string_view component, F&& action) {
    if (at < now_) {
      throw std::invalid_argument("scheduling into the past: " +
                                  at.to_string());
    }
    return scheduler_.schedule_at(at, std::forward<F>(action), component);
  }

  /// Runs until the event queue drains or stop() is called.
  void run();
  /// Runs events with time <= until, then sets the clock to `until`.
  void run_until(SimTime until);
  /// Makes run()/run_until() return after the current event.
  void stop() noexcept { stopped_ = true; }

  std::uint64_t seed() const noexcept { return seed_; }
  /// Derives an independent RNG stream for a component. The same
  /// (seed, stream) pair always yields the same stream.
  Rng make_rng(std::uint64_t stream) const { return Rng(seed_, stream); }

  std::uint64_t events_dispatched() const noexcept {
    return scheduler_.dispatched_count();
  }
  /// Pending events (including cancelled ones not yet dropped).
  std::size_t queue_depth() const noexcept { return scheduler_.size(); }

  /// Attaches (nullptr detaches) a kernel profiler; see Scheduler.
  void set_profiler(obs::KernelProfiler* profiler) noexcept {
    scheduler_.set_profiler(profiler);
  }

  /// Binds the scheduler pool's sched.pool.* counters; see Scheduler.
  void bind_kernel_stats(obs::StatsRegistry& registry) {
    scheduler_.bind_stats(registry);
  }

  /// Attaches (nullptr detaches) a sink for kernel-emitted trace events
  /// (currently the heartbeat counter tracks).
  void set_trace_sink(obs::TraceSink* sink) noexcept { trace_sink_ = sink; }

  /// Emits a progress heartbeat every `interval` of simulation time: an
  /// INFO log line (sim time, wall time, events/sec, queue depth) plus
  /// counter events into the trace sink when one is attached. Heartbeats
  /// stop by themselves when the rest of the queue drains.
  void enable_heartbeat(SimTime interval);

 private:
  void heartbeat();

  Scheduler scheduler_;
  SimTime now_ = SimTime::zero();
  bool stopped_ = false;
  std::uint64_t seed_;

  obs::TraceSink* trace_sink_ = nullptr;
  SimTime heartbeat_interval_ = SimTime::zero();
  std::chrono::steady_clock::time_point heartbeat_wall_start_{};
  std::chrono::steady_clock::time_point last_heartbeat_wall_{};
  SimTime last_heartbeat_sim_ = SimTime::zero();
  std::uint64_t last_heartbeat_events_ = 0;
};

}  // namespace cavenet::netsim

#endif  // CAVENET_NETSIM_SIMULATOR_H
