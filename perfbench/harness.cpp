// perfbench_harness: runs one in-process benchmark workload through the
// library's public entry points and writes raw samples as JSON.
//
//   perfbench_harness --workload host   (prints {"simd_active": ...})
//   perfbench_harness --workload paper_figs|highway_3k|trace_roundtrip
//                     --out-dir DIR --result FILE --seconds S --trace 0|1
//                     [--spec FILE]... [--road-seed N]
//
// perfbench/run.py generates the inputs from the benchmark seed, drives
// this binary, checks the outputs and turns the samples into metrics.
//
// Untraced (--trace 0): repeat the measured work until --seconds have
// passed, timing every iteration, with kSetupRepsPerIteration timed
// set-ups before each one (kWarmupSetups more before the first), so the
// set-up samples are spread over the whole run like the iterations.
// Traced (--trace 1): the first half of the window runs untraced (the
// overhead baseline), the second half attaches an obs::KernelProfiler
// through scenario::ObsHooks and records a span around every public call;
// the spans stay in memory and are written once, to <out-dir>/spans.json.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/geometry.h"
#include "core/lane_simd.h"
#include "core/nas_lane.h"
#include "core/road.h"
#include "netsim/simulator.h"
#include "obs/json.h"
#include "obs/kernel_profiler.h"
#include "scenario/table1.h"
#include "spec/build.h"
#include "spec/campaign.h"
#include "spec/figures.h"
#include "spec/spec.h"
#include "trace/mobility_trace.h"
#include "trace/ns2_format.h"
#include "trace/trace_generator.h"

namespace {

using namespace cavenet;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// ---- spans ---------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int iteration = -1;  // -1 = set-up
};

/// In-memory span log. Disabled (the untraced default) it records
/// nothing; a Scope then costs one branch.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, std::string_view name) : log_(log) {
      if (!log_.enabled) return;
      index_ = static_cast<int>(log_.spans_.size());
      log_.spans_.push_back({std::string(name), now_ns(), 0,
                             log_.open_.empty() ? -1 : log_.open_.back(),
                             log_.iteration});
      log_.open_.push_back(index_);
    }
    ~Scope() {
      if (index_ < 0) return;
      log_.spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
      log_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_ = -1;
  };

  bool enabled = false;
  int iteration = -1;

  void write(const std::string& path, const std::string& run_id) const {
    obs::JsonWriter w;
    w.begin_object();
    w.key("run_id");
    w.value(run_id);
    w.key("spans");
    w.begin_array();
    for (const Span& s : spans_) {
      w.begin_object();
      w.key("name");
      w.value(s.name);
      w.key("start_ns");
      w.value(s.start_ns);
      w.key("end_ns");
      w.value(s.end_ns);
      w.key("parent");
      w.value(static_cast<std::int64_t>(s.parent));
      w.key("iteration");
      w.value(static_cast<std::int64_t>(s.iteration));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::ofstream(path, std::ios::binary) << w.str() << "\n";
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---- helpers -------------------------------------------------------------

std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Timed set-ups before the first iteration and before every iteration;
/// setup_s is the median of all of them.
constexpr int kWarmupSetups = 8;
constexpr int kSetupRepsPerIteration = 4;

/// trace_roundtrip's roads: kRoads Table-I circuits (30 vehicles on 400
/// cells, one step per trace second for 100 s), each with its own seed.
/// One trace and its text stay within a core's private cache, so the
/// timing does not follow other tenants' memory traffic.
constexpr int kRoads = 16;
constexpr std::int64_t kRoadCells = 400;
constexpr std::int64_t kRoadVehicles = 30;
constexpr std::int64_t kRoadSteps = 100;
constexpr double kRoadSlowdownP = 0.7;

struct Options {
  std::string workload;
  std::string out_dir;
  std::string result;
  std::vector<std::string> specs;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t road_seed = 1;
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--out-dir") o.out_dir = value;
    else if (flag == "--result") o.result = value;
    else if (flag == "--spec") o.specs.push_back(value);
    else if (flag == "--seconds") o.seconds = std::stod(value);
    else if (flag == "--trace") o.trace = value == "1";
    else if (flag == "--road-seed") o.road_seed = std::stoull(value);
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (o.workload != "host" && (o.out_dir.empty() || o.result.empty())) {
    throw std::invalid_argument("--out-dir and --result are required");
  }
  return o;
}

/// One iteration's outcome: the operations it attempted and failed, and
/// a content hash that must repeat exactly in every iteration.
/// `measured_s` >= 0 replaces the iteration's wall time when the
/// iteration interleaves untimed checks with the measured work.
struct IterationOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  double measured_s = -1.0;
};

/// Counts a workload reports besides its timings (deterministic only).
using Counts = std::map<std::string, double>;

// ---- workloads -----------------------------------------------------------

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// Everything before the measured work; repeated before every
  /// iteration, so an iteration may consume what set-up built.
  virtual void setup(SpanLog& spans) = 0;
  /// Untimed, once after the first set-up: work whose only product is
  /// counts().
  virtual void count_pass() {}
  /// One measured iteration. `profiler` is non-null in traced iterations.
  virtual IterationOutcome iterate(SpanLog& spans,
                                   obs::KernelProfiler* profiler) = 0;
  /// Untimed output checks of the iteration just run: adds failures and
  /// sets the digest.
  virtual void verify(IterationOutcome& outcome) = 0;
  virtual Counts counts() const { return {}; }
  /// Untimed extra layer measurements for the traced run.
  virtual Counts traced_extras() { return {}; }
};

std::uint64_t hash_files(const std::string& dir,
                         const std::vector<std::string>& names) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& name : names) {
    h = fnv1a(name, h);
    h = fnv1a(slurp(spec::join_output_path(dir, name)), h);
  }
  return h;
}

/// The NaS circuit scenario::make_table1_trace steps for a Table-I-style
/// config: a closed lane of `cells` cells on a circle, random placement.
ca::Road make_nas_road(std::int64_t cells, std::int64_t vehicles, double p,
                       std::uint64_t seed) {
  ca::NasParams params;
  params.lane_length = cells;
  params.slowdown_p = p;
  params.boundary = ca::Boundary::kClosed;
  ca::NasLane lane(params, vehicles, ca::InitialPlacement::kRandom,
                   Rng(seed, 0x6d6f62));
  ca::Road road;
  road.add_lane(std::move(lane), ca::make_circuit(params.lane_length_m()));
  return road;
}

/// core.step_s: a separate ca::Road::step pass over each scenario's road
/// and seed, for as many steps as its trace has (one per sim-second).
Counts core_pass(const std::vector<const scenario::TableIConfig*>& configs) {
  double seconds = 0.0;
  for (const scenario::TableIConfig* c : configs) {
    ca::Road road =
        make_nas_road(c->lane_cells, c->vehicles, c->slowdown_p, c->seed);
    const auto steps = static_cast<std::int64_t>(c->duration_s);
    const std::int64_t start = now_ns();
    for (std::int64_t i = 0; i < steps; ++i) road.step();
    seconds += seconds_since(start);
  }
  return {{"core.step_s", seconds}};
}

std::int64_t vehicle_steps(const scenario::TableIConfig& c) {
  return c.vehicles * static_cast<std::int64_t>(c.duration_s);
}

/// paper_figs: the goodput_surface specs (Figs. 8-10), back to back, one
/// ensemble job each, through spec::run_goodput_surface — the code path
/// `cavenet-run fig8_aodv.json` takes. Its manifest keeps only the first
/// sender's event count, so netsim.events comes from one untimed
/// run_all_senders pass per figure; the output digest proves every run
/// simulates the same events.
class PaperFigs : public Workload {
 public:
  explicit PaperFigs(const Options& o) : options_(o) {}

  void setup(SpanLog& spans) override {
    specs_.clear();
    trace_events_ = 0;
    for (const std::string& path : options_.specs) {
      {
        SpanLog::Scope s(spans, "spec.load");
        specs_.push_back(spec::load_campaign_file(path));
      }
      trace::MobilityTrace mobility;
      {
        SpanLog::Scope s(spans, "trace.generate");
        mobility = spec::build_trace(specs_.back().scenario);
      }
      SpanLog::Scope s(spans, "trace.compile");
      (void)trace::compile_paths(mobility);
      trace_events_ += mobility.events.size();
    }
  }

  void count_pass() override {
    events_ = 0;
    for (const spec::CampaignSpec& figure : specs_) {
      for (const scenario::SenderRunResult& r : scenario::run_all_senders(
               figure.scenario.config, figure.scenario.first_sender,
               figure.scenario.last_sender, 1)) {
        events_ += r.events_dispatched;
      }
    }
  }

  IterationOutcome iterate(SpanLog& spans,
                           obs::KernelProfiler* profiler) override {
    IterationOutcome outcome;
    for (const spec::CampaignSpec& base : specs_) {
      ++outcome.attempted;
      spec::CampaignSpec figure = base;
      figure.scenario.config.obs.profiler = profiler;
      try {
        // The whole entry point: the sender runs plus its table, CSV and
        // manifest writing.
        SpanLog::Scope s(spans, "scenario.run");
        spec::run_goodput_surface(figure, 1, options_.out_dir);
      } catch (const std::exception& error) {
        std::cerr << figure.name << ": " << error.what() << "\n";
        ++outcome.failed;
      }
    }
    return outcome;
  }

  void verify(IterationOutcome& outcome) override {
    std::vector<std::string> files;
    for (const spec::CampaignSpec& figure : specs_) {
      files.push_back(figure.outputs.csv);
    }
    outcome.digest = hash_files(options_.out_dir, files);
  }

  Counts counts() const override {
    std::size_t runs = 0;
    std::int64_t steps = 0;
    for (const spec::CampaignSpec& figure : specs_) {
      runs += figure.scenario.last_sender - figure.scenario.first_sender + 1;
      steps += vehicle_steps(figure.scenario.config);
    }
    return {{"netsim.events", static_cast<double>(events_)},
            {"spec.points", static_cast<double>(runs)},
            {"trace.events", static_cast<double>(trace_events_)},
            {"core.vehicle_steps", static_cast<double>(steps)}};
  }

  Counts traced_extras() override {
    std::vector<const scenario::TableIConfig*> configs;
    for (const spec::CampaignSpec& figure : specs_) {
      configs.push_back(&figure.scenario.config);
    }
    return core_pass(configs);
  }

 private:
  const Options& options_;
  std::vector<spec::CampaignSpec> specs_;
  std::uint64_t events_ = 0;
  std::uint64_t trace_events_ = 0;
};

/// highway_3k: one campaign point through run_campaign_point plus the
/// campaign CSV rebuild — the code path `cavenet-run highway.json` takes.
class HighwayPoint : public Workload {
 public:
  explicit HighwayPoint(const Options& o) : options_(o) {}

  void setup(SpanLog& spans) override {
    {
      SpanLog::Scope s(spans, "spec.load");
      spec_ = spec::load_campaign_file(options_.specs.at(0));
      points_ = spec::expand_points(spec_);
    }
    trace::MobilityTrace mobility;
    {
      SpanLog::Scope s(spans, "trace.generate");
      mobility = spec::build_trace(points_.at(0).scenario);
    }
    SpanLog::Scope s(spans, "trace.compile");
    (void)trace::compile_paths(mobility);
    trace_events_ = mobility.events.size();
  }

  IterationOutcome iterate(SpanLog& spans,
                           obs::KernelProfiler* profiler) override {
    IterationOutcome outcome;
    for (const spec::CampaignPoint& base : points_) {
      ++outcome.attempted;
      spec::CampaignPoint point = base;
      point.scenario.config.obs.profiler = profiler;
      try {
        SpanLog::Scope s(spans, "scenario.run");
        events_ = spec::run_campaign_point(spec_, point, options_.out_dir)
                      .events_dispatched;
      } catch (const std::exception& error) {
        std::cerr << spec_.name << ": " << error.what() << "\n";
        ++outcome.failed;
      }
    }
    try {
      SpanLog::Scope s(spans, "spec.write_outputs");
      spec::write_campaign_outputs(spec_, points_, options_.out_dir);
    } catch (const std::exception& error) {
      std::cerr << spec_.name << ": " << error.what() << "\n";
      ++outcome.failed;
    }
    return outcome;
  }

  void verify(IterationOutcome& outcome) override {
    outcome.digest = hash_files(options_.out_dir, {spec_.outputs.csv});
  }

  Counts counts() const override {
    return {{"netsim.events", static_cast<double>(events_)},
            {"spec.points", static_cast<double>(points_.size())},
            {"trace.events", static_cast<double>(trace_events_)},
            {"core.vehicle_steps",
             static_cast<double>(vehicle_steps(points_.at(0).scenario.config))}};
  }

  Counts traced_extras() override {
    return core_pass({&points_.at(0).scenario.config});
  }

 private:
  const Options& options_;
  spec::CampaignSpec spec_;
  std::vector<spec::CampaignPoint> points_;
  std::uint64_t events_ = 0;
  std::uint64_t trace_events_ = 0;
};

/// trace_roundtrip: the BA -> CPS file interface in memory, on kRoads
/// Table-I roads: step each NaS road into a trace, write it as ns-2 text,
/// parse it back, compile it. Each trace is checked right after its four
/// timed calls, so the iteration time is the sum of those calls.
class TraceRoundTrip : public Workload {
 public:
  explicit TraceRoundTrip(const Options& o) : options_(o) {}

  // Stepping consumes a road, so set-up (which runs before every
  // iteration) builds all of them afresh from their seeds.
  void setup(SpanLog& spans) override {
    SpanLog::Scope s(spans, "core.build_road");
    roads_.clear();
    for (int k = 0; k < kRoads; ++k) {
      roads_.push_back(make_nas_road(kRoadCells, kRoadVehicles,
                                     kRoadSlowdownP, road_seed(k)));
    }
  }

  IterationOutcome iterate(SpanLog& spans, obs::KernelProfiler*) override {
    IterationOutcome outcome;
    outcome.measured_s = 0.0;
    outcome.digest = 0xcbf29ce484222325ull;
    events_ = 0;
    bytes_ = 0;
    for (std::size_t k = 0; k < roads_.size(); ++k) {
      ++outcome.attempted;
      const std::int64_t start = now_ns();
      trace::MobilityTrace original;
      {
        SpanLog::Scope s(spans, "trace.generate");
        trace::TraceGeneratorOptions generator;
        generator.steps = kRoadSteps;
        generator.delta_offset = 1.0;
        original = trace::generate_trace(roads_[k], generator);
      }
      std::stringstream stream;
      {
        SpanLog::Scope s(spans, "trace.write");
        trace::write_ns2(original, stream);
      }
      trace::MobilityTrace parsed;
      {
        SpanLog::Scope s(spans, "trace.read");
        parsed = trace::read_ns2(stream);
      }
      std::vector<trace::NodePath> paths;
      {
        SpanLog::Scope s(spans, "trace.compile");
        paths = trace::compile_paths(parsed);
      }
      outcome.measured_s += seconds_since(start);
      const std::string text = std::move(stream).str();
      events_ += original.events.size();
      bytes_ += text.size();
      if (!check(k, original, parsed, paths)) ++outcome.failed;
      outcome.digest = fnv1a(text, outcome.digest);
    }
    roads_.clear();
    return outcome;
  }

  // The checks ran inside iterate().
  void verify(IterationOutcome&) override {}

  Counts counts() const override {
    return {{"trace.events", static_cast<double>(events_)},
            {"trace.bytes", static_cast<double>(bytes_)},
            {"core.vehicle_steps",
             static_cast<double>(kRoads * kRoadVehicles * kRoadSteps)}};
  }

  Counts traced_extras() override {
    // A separate stepping pass on the same roads and seeds, so trace
    // generation's self time is generate - step.
    double seconds = 0.0;
    for (int k = 0; k < kRoads; ++k) {
      ca::Road road = make_nas_road(kRoadCells, kRoadVehicles, kRoadSlowdownP,
                                    road_seed(k));
      const std::int64_t start = now_ns();
      for (std::int64_t i = 0; i < kRoadSteps; ++i) road.step();
      seconds += seconds_since(start);
    }
    return {{"core.step_s", seconds}};
  }

 private:
  std::uint64_t road_seed(int k) const {
    return options_.road_seed + static_cast<std::uint64_t>(k);
  }

  // The first pass over road k checks every field; later passes must
  // parse to the same bytes, which costs a hash instead of a printf round
  // trip per field.
  bool check(std::size_t k, const trace::MobilityTrace& original,
             const trace::MobilityTrace& parsed,
             const std::vector<trace::NodePath>& paths) {
    if (parsed_hash_.size() <= k) {
      parsed_hash_.resize(k + 1, 0);
      reference_.resize(k + 1);
    }
    const std::uint64_t hash = hash_trace(parsed);
    if (parsed_hash_[k] == 0) {
      if (!fields_match(original, parsed)) return false;
      parsed_hash_[k] = hash;
      reference_[k] = trace::compile_paths(original);
    } else if (hash != parsed_hash_[k]) {
      std::cerr << "trace_roundtrip: road " << k
                << " parsed differently between iterations\n";
      return false;
    }
    return paths_match(reference_[k], paths);
  }

  static std::uint64_t hash_trace(const trace::MobilityTrace& t) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const auto& value) {
      h = fnv1a(std::string_view(reinterpret_cast<const char*>(&value),
                                 sizeof value),
                h);
    };
    for (const Vec2& p : t.initial_positions) {
      mix(p.x);
      mix(p.y);
    }
    for (const trace::TraceEvent& e : t.events) {
      mix(e.time_s);
      mix(e.node);
      mix(e.kind);
      mix(e.target.x);
      mix(e.target.y);
      mix(e.speed_ms);
    }
    return h;
  }

  /// The value a field reads back as after "%.9g" printing.
  static double printed(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return std::strtod(buf, nullptr);
  }

  static bool fields_match(const trace::MobilityTrace& a,
                           const trace::MobilityTrace& b) {
    if (a.node_count() != b.node_count() || a.events.size() != b.events.size()) {
      std::cerr << "trace_roundtrip: node/event count mismatch\n";
      return false;
    }
    for (std::size_t i = 0; i < a.initial_positions.size(); ++i) {
      if (printed(a.initial_positions[i].x) != b.initial_positions[i].x ||
          printed(a.initial_positions[i].y) != b.initial_positions[i].y) {
        std::cerr << "trace_roundtrip: initial position " << i << " differs\n";
        return false;
      }
    }
    for (std::size_t i = 0; i < a.events.size(); ++i) {
      const trace::TraceEvent& x = a.events[i];
      const trace::TraceEvent& y = b.events[i];
      const bool same =
          printed(x.time_s) == y.time_s && x.node == y.node &&
          x.kind == y.kind && printed(x.target.x) == y.target.x &&
          printed(x.target.y) == y.target.y &&
          (x.kind != trace::TraceEvent::Kind::kSetDest ||
           printed(x.speed_ms) == y.speed_ms);
      if (!same) {
        std::cerr << "trace_roundtrip: event " << i << " differs\n";
        return false;
      }
    }
    return true;
  }

  /// Sampled positions: 997 (node, time) pairs on a fixed lattice.
  static bool paths_match(const std::vector<trace::NodePath>& reference,
                          const std::vector<trace::NodePath>& parsed) {
    if (reference.size() != parsed.size()) return false;
    const double horizon = static_cast<double>(kRoadSteps) + 1.0;
    for (std::size_t k = 0; k < 997; ++k) {
      const std::size_t node = (k * 7919) % parsed.size();
      const double t = horizon * static_cast<double>(k) / 997.0;
      const Vec2 p = reference[node].position(t);
      const Vec2 q = parsed[node].position(t);
      if (std::abs(p.x - q.x) > 0.01 || std::abs(p.y - q.y) > 0.01) {
        std::cerr << "trace_roundtrip: node " << node << " at t=" << t
                  << " differs\n";
        return false;
      }
    }
    return true;
  }

  const Options& options_;
  std::vector<ca::Road> roads_;
  // Per road: the hash of its first parse and the paths compiled from the
  // original trace.
  std::vector<std::uint64_t> parsed_hash_;
  std::vector<std::vector<trace::NodePath>> reference_;
  std::uint64_t events_ = 0;
  std::uint64_t bytes_ = 0;
};

// ---- kernel dispatch overhead ----------------------------------------------

/// Self-rescheduling empty event: the handler only schedules its successor.
struct Hop {
  netsim::Simulator* sim;
  std::uint64_t* left;
  std::uint64_t* lcg;
  void operator()() const {
    if (*left == 0) return;
    --*left;
    *lcg = *lcg * 6364136223846793005ull + 1442695040888963407ull;
    const auto delay_us = 1 + static_cast<std::int64_t>(*lcg >> 54);
    sim->schedule(SimTime::microseconds(delay_us), "hop", *this);
  }
};

/// Kernel time per dispatch spent outside every handler (queue work plus
/// the profiler's own clock reads), from a separate pass of empty events
/// through netsim::Simulator with a profiler attached: 1024 concurrent
/// chains, 2 M dispatches.
double dispatch_overhead_ns() {
  constexpr std::uint64_t kDispatches = 2'000'000;
  netsim::Simulator sim(1);
  obs::KernelProfiler profiler;
  sim.set_profiler(&profiler);
  std::uint64_t left = kDispatches;
  std::uint64_t lcg = 1;
  for (int chain = 0; chain < 1024; ++chain) {
    sim.schedule(SimTime::microseconds(chain), "hop", Hop{&sim, &left, &lcg});
  }
  const std::int64_t start = now_ns();
  sim.run();
  const double total_ns = static_cast<double>(now_ns() - start);
  return (total_ns - static_cast<double>(profiler.total_wall_ns())) /
         static_cast<double>(profiler.total_dispatches());
}

// ---- measurement loop ----------------------------------------------------

struct Phase {
  std::vector<double> wall_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  bool digest_stable = true;
};

/// `reps` timed set-ups, appended to `setup_s`. With `traced`, the first
/// one records its spans as the run's single set-up (iteration -1).
void timed_setups(Workload& workload, SpanLog& spans, int reps, bool traced,
                  std::vector<double>& setup_s) {
  const bool was_enabled = spans.enabled;
  const int iteration = spans.iteration;
  for (int rep = 0; rep < reps; ++rep) {
    spans.enabled = traced && rep == 0;
    spans.iteration = -1;
    const std::int64_t t0 = now_ns();
    workload.setup(spans);
    setup_s.push_back(seconds_since(t0));
  }
  spans.enabled = was_enabled;
  spans.iteration = iteration;
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) throw std::runtime_error("no CPU in the affinity mask");
  return cpus;
}

void pin_to_cpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) {
    throw std::runtime_error("cannot pin to CPU " + std::to_string(cpu));
  }
}

/// Repeats set-ups and iterations until `seconds` have passed (at least
/// one iteration). With `traced_setup`, the first set-up records spans.
///
/// Each iteration and the set-ups before it run pinned to the next
/// allowed CPU in turn. The vCPUs of a shared host can run at speeds that
/// differ by tens of percent for minutes at a time, and the scheduler
/// leaves a single thread on one of them for long stretches, so an
/// unpinned run measures whichever vCPU it landed on; round robin samples
/// every one of them evenly.
void measure(Workload& workload, SpanLog& spans, double seconds,
             obs::KernelProfiler* profiler, bool traced_setup, Phase& phase,
             std::vector<double>& setup_s, int& iteration) {
  static const std::vector<int> cpus = allowed_cpus();
  const std::int64_t start = now_ns();
  do {
    pin_to_cpu(cpus[static_cast<std::size_t>(iteration) % cpus.size()]);
    timed_setups(workload, spans, kSetupRepsPerIteration,
                 traced_setup && phase.wall_s.empty(), setup_s);
    spans.iteration = iteration++;
    const std::int64_t t0 = now_ns();
    IterationOutcome outcome;
    {
      SpanLog::Scope s(spans, "iteration");
      outcome = workload.iterate(spans, profiler);
    }
    const double wall = seconds_since(t0);
    phase.wall_s.push_back(outcome.measured_s >= 0 ? outcome.measured_s
                                                   : wall);
    workload.verify(outcome);
    phase.attempted += outcome.attempted;
    phase.failed += outcome.failed;
    if (phase.wall_s.size() == 1) phase.digest = outcome.digest;
    if (outcome.digest != phase.digest) phase.digest_stable = false;
  } while (seconds_since(start) < seconds);
}

void write_phase(obs::JsonWriter& w, std::string_view key, const Phase& p) {
  w.key(key);
  w.begin_object();
  w.key("wall_s");
  w.begin_array();
  for (const double v : p.wall_s) w.value(v);
  w.end_array();
  w.key("attempted");
  w.value(p.attempted);
  w.key("failed");
  w.value(p.failed);
  w.key("digest");
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(p.digest));
  w.value(std::string_view(hex));
  w.key("digest_stable");
  w.value(p.digest_stable);
  w.end_object();
}

int run(const Options& o) {
  if (o.workload == "host") {
    std::cout << "{\"simd_active\": "
              << (ca::simd::active() ? "true" : "false") << "}\n";
    return 0;
  }
  std::unique_ptr<Workload> workload;
  if (o.workload == "paper_figs") workload = std::make_unique<PaperFigs>(o);
  else if (o.workload == "highway_3k") workload = std::make_unique<HighwayPoint>(o);
  else if (o.workload == "trace_roundtrip") workload = std::make_unique<TraceRoundTrip>(o);
  else throw std::invalid_argument("unknown workload " + o.workload);

  SpanLog spans;
  std::vector<double> setup_s;
  // The first set-up is cold; it counts like every other sample.
  timed_setups(*workload, spans, kWarmupSetups, false, setup_s);
  workload->count_pass();

  Phase untraced;
  Phase traced;
  obs::KernelProfiler profiler;
  Counts extras;
  int iteration = 0;
  measure(*workload, spans, o.trace ? o.seconds / 2 : o.seconds, nullptr,
          false, untraced, setup_s, iteration);
  if (o.trace) {
    // Only the traced half's first set-up records spans, so the span file
    // holds one set-up.
    spans.enabled = true;
    measure(*workload, spans, o.seconds / 2, &profiler, true, traced,
            setup_s, iteration);
    spans.enabled = false;
    extras = workload->traced_extras();
    extras["netsim.dispatch_overhead_ns"] = dispatch_overhead_ns();
    spans.write(spec::join_output_path(o.out_dir, "spans.json"),
                o.workload + "-" + std::to_string(now_ns()));
  }

  obs::JsonWriter w;
  w.begin_object();
  w.key("workload");
  w.value(o.workload);
  w.key("peak_rss_mib");
  w.value(peak_rss_mib());
  w.key("setup_s");
  w.begin_array();
  for (const double v : setup_s) w.value(v);
  w.end_array();
  write_phase(w, "untraced", untraced);
  if (o.trace) write_phase(w, "traced", traced);
  w.key("counts");
  w.begin_object();
  for (const auto& [name, value] : workload->counts()) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.key("traced_extras");
  w.begin_object();
  for (const auto& [name, value] : extras) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  // Handler totals over the traced iterations (the profiler read the
  // clock around every dispatch).
  w.key("kernel");
  w.begin_object();
  for (const auto& [label, component] : profiler.components()) {
    w.key(label);
    w.begin_object();
    w.key("dispatches");
    w.value(component.dispatches);
    w.key("wall_s");
    w.value(static_cast<double>(component.wall_ns) * 1e-9);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::ofstream out(o.result, std::ios::binary);
  out << w.str() << "\n";
  return out.flush() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench_harness: " << error.what() << "\n";
    return 2;
  }
}
