#include "netsim/simulator.h"

#include <cstdio>
#include <stdexcept>

#include "obs/trace_sink.h"
#include "util/logging.h"

namespace cavenet::netsim {

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && !scheduler_.empty()) {
    now_ = scheduler_.next_time();
    scheduler_.run_one();
  }
}

void Simulator::run_until(SimTime until) {
  stopped_ = false;
  while (!stopped_ && !scheduler_.empty() &&
         scheduler_.next_time() <= until) {
    now_ = scheduler_.next_time();
    scheduler_.run_one();
  }
  if (!stopped_ && now_ < until) now_ = until;
}

void Simulator::enable_heartbeat(SimTime interval) {
  if (interval <= SimTime::zero()) {
    throw std::invalid_argument("heartbeat interval must be > 0");
  }
  heartbeat_interval_ = interval;
  heartbeat_wall_start_ = std::chrono::steady_clock::now();
  last_heartbeat_wall_ = heartbeat_wall_start_;
  last_heartbeat_sim_ = now_;
  last_heartbeat_events_ = events_dispatched();
  schedule(interval, "sim.heartbeat", [this] { heartbeat(); });
}

void Simulator::heartbeat() {
  const auto wall_now = std::chrono::steady_clock::now();
  const double wall_delta_s =
      std::chrono::duration<double>(wall_now - last_heartbeat_wall_).count();
  const double wall_total_s =
      std::chrono::duration<double>(wall_now - heartbeat_wall_start_).count();
  const std::uint64_t events = events_dispatched();
  const double events_per_s =
      wall_delta_s > 0.0
          ? static_cast<double>(events - last_heartbeat_events_) / wall_delta_s
          : 0.0;
  const double sim_delta_s = (now_ - last_heartbeat_sim_).sec();
  const double speedup = wall_delta_s > 0.0 ? sim_delta_s / wall_delta_s : 0.0;
  const std::size_t depth = queue_depth();

  if (log_enabled(LogLevel::kInfo)) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "t=%.1fs wall=%.1fs events=%llu rate=%.0f ev/s "
                  "speedup=%.1fx queue=%zu",
                  now_.sec(), wall_total_s,
                  static_cast<unsigned long long>(events), events_per_s,
                  speedup, depth);
    log_line(LogLevel::kInfo, "heartbeat", buf);
  }
  if (trace_sink_ != nullptr) {
    obs::TraceEvent e;
    e.ts = now_;
    e.phase = obs::TraceEvent::Phase::kCounter;
    e.category = "kernel";
    e.name = "sim.events_per_sec";
    e.value = events_per_s;
    trace_sink_->emit(e);
    e.name = "sim.queue_depth";
    e.value = static_cast<double>(depth);
    trace_sink_->emit(e);
    e.name = "sim.speedup";
    e.value = speedup;
    trace_sink_->emit(e);
  }

  last_heartbeat_wall_ = wall_now;
  last_heartbeat_sim_ = now_;
  last_heartbeat_events_ = events;

  // Keep beating only while other work remains: the heartbeat must never
  // keep the queue alive on its own.
  if (!scheduler_.empty()) {
    schedule(heartbeat_interval_, "sim.heartbeat", [this] { heartbeat(); });
  }
}

}  // namespace cavenet::netsim
