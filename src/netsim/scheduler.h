// Discrete-event scheduler with a pooled, allocation-free hot path.
//
// A binary heap keyed by (time, insertion sequence) — the sequence number
// makes simultaneous events fire in scheduling order, so runs are fully
// deterministic. Events can be cancelled in O(1).
//
// Storage design (docs/SCALING.md "Allocation"): event records live in a
// slab of fixed 64-byte slots addressed by {slot, generation} handles.
// The action is stored in a 48-byte inline small-buffer (every kernel
// lambda — MAC, PHY, channel delivery, routing, app — fits; oversized
// captures fall back to one heap box). Freed slots recycle through a free
// list and the heap stores plain {time, seq, slot, generation} entries,
// so a steady-state schedule+dispatch cycle performs zero heap
// allocations. Cancelling releases the action (and the packets/pointers
// it captures) eagerly; stale heap entries are skipped by a generation
// compare and compacted away when they outnumber live ones.
#ifndef CAVENET_NETSIM_SCHEDULER_H
#define CAVENET_NETSIM_SCHEDULER_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/stats_registry.h"
#include "util/sim_time.h"

namespace cavenet::obs {
class KernelProfiler;
}  // namespace cavenet::obs

namespace cavenet::netsim {

namespace detail {

/// Type-erased move-only callable with a fixed inline buffer. Callables
/// that fit (size <= 48, pointer alignment, nothrow-movable) live in the
/// buffer; anything bigger is boxed on the heap. One ops-table pointer
/// keeps the whole object at 56 bytes so an EventRecord stays a 64-byte
/// slab slot.
class InlineAction {
 public:
  static constexpr std::size_t kCapacity = 48;

  InlineAction() noexcept = default;
  InlineAction(InlineAction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }
  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }
  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;
  ~InlineAction() { reset(); }

  /// Whether a callable of type Fn will live in the inline buffer.
  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kCapacity && alignof(Fn) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    reset();
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &OpsFor<Fn, /*Heap=*/false>::kOps;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &OpsFor<Fn, /*Heap=*/true>::kOps;
    }
  }

  void operator()() { ops_->invoke(buf_); }
  explicit operator bool() const noexcept { return ops_ != nullptr; }
  /// True when the callable lives in the inline buffer (perf counters).
  bool inline_stored() const noexcept {
    return ops_ != nullptr && !ops_->heap;
  }
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    bool heap;
  };

  template <typename Fn, bool Heap>
  struct OpsFor;

  template <typename Fn>
  struct OpsFor<Fn, false> {
    static void invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
      static_cast<Fn*>(src)->~Fn();
    }
    static void destroy(void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops kOps{&invoke, &relocate, &destroy, false};
  };

  template <typename Fn>
  struct OpsFor<Fn, true> {
    static Fn*& box(void* p) noexcept { return *static_cast<Fn**>(p); }
    static void invoke(void* p) { (*box(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) Fn*(box(src));
    }
    static void destroy(void* p) noexcept { delete box(p); }
    static constexpr Ops kOps{&invoke, &relocate, &destroy, true};
  };

  alignas(void*) std::byte buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

/// One slab slot. `generation` advances every time the slot is freed, so
/// a {slot, generation} handle (EventId, heap entry) refers to exactly
/// one incarnation of the slot: a recycled slot never resurrects a stale
/// handle. `component_id` indexes the scheduler's interned label table.
struct EventRecord {
  InlineAction action;
  std::uint32_t generation = 0;
  std::uint32_t component_id = 0;
};
static_assert(sizeof(EventRecord) == 64,
              "event records are sized to exactly one 64-byte slab slot");

}  // namespace detail

class Scheduler;

/// Handle to a scheduled event; default-constructed handles are inert.
/// A handle weakly references a {slot, generation} pair in its
/// scheduler's pool — cancel()/pending() on expired, cancelled or
/// recycled slots are cheap no-ops. Handles must not be used after their
/// Scheduler is destroyed.
class EventId {
 public:
  EventId() = default;

  /// Prevents the event from firing and releases its action (and
  /// everything the action captured) immediately. Idempotent; safe after
  /// expiry.
  void cancel() noexcept;
  /// True if the event is still queued and will fire.
  bool pending() const noexcept;

 private:
  friend class Scheduler;
  EventId(Scheduler* scheduler, std::uint32_t slot,
          std::uint32_t generation) noexcept
      : scheduler_(scheduler), slot_(slot), generation_(generation) {}

  Scheduler* scheduler_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueues `action` at absolute time `at`. `at` must not precede the
  /// time of the last dequeued event (no scheduling into the past).
  /// `component` labels the event for kernel profiling and must point at
  /// static storage (pass a string literal). Steady state (recycled slot,
  /// action fits the inline buffer, heap vector at capacity) allocates
  /// nothing.
  template <typename F>
    requires std::is_invocable_v<std::decay_t<F>&>
  EventId schedule_at(SimTime at, F&& action,
                      std::string_view component = {}) {
    const std::uint32_t slot = acquire_slot(at);
    detail::EventRecord& rec = record_at(slot);
    rec.action.emplace(std::forward<F>(action));
    if constexpr (detail::InlineAction::fits_inline<std::decay_t<F>>()) {
      obs_action_inline_.inc();
    } else {
      obs_action_heap_.inc();
    }
    rec.component_id =
        component.empty() ? 0 : intern_component(component);
    const std::uint32_t generation = rec.generation;
    push_entry(at, slot, generation);
    return EventId(this, slot, generation);
  }

  bool empty() const noexcept {
    drop_cancelled();
    return heap_.empty();
  }
  /// Time of the earliest pending event; SimTime::max() when empty.
  SimTime next_time() const noexcept {
    drop_cancelled();
    return heap_.empty() ? SimTime::max() : heap_.front().at;
  }

  /// Dequeues and runs the earliest event. Returns false if none pending.
  bool run_one();

  /// Time of the most recently dequeued event.
  SimTime last_dispatched() const noexcept { return last_dispatched_; }

  std::uint64_t dispatched_count() const noexcept { return dispatched_; }

  /// Queued events, including cancelled ones not yet dropped.
  std::size_t size() const noexcept { return heap_.size(); }

  /// Attaches (or detaches, with nullptr) a kernel profiler. While
  /// attached, every dispatch is wall-clock timed and attributed to the
  /// event's component label; detached costs one branch per event.
  void set_profiler(obs::KernelProfiler* profiler) noexcept {
    profiler_ = profiler;
  }

  /// Binds the pool's counters into a registry: "sched.pool.slots"
  /// (slab capacity grown), "sched.pool.action.inline" /
  /// "sched.pool.action.heap" (where actions were stored),
  /// "sched.pool.cancelled" and "sched.pool.compactions". Opt-in: the
  /// scenario runners do not bind these, keeping their manifests stable.
  void bind_stats(obs::StatsRegistry& registry);

 private:
  friend class EventId;

  /// Records per slab chunk; chunks pin records in place (handles and
  /// heap entries index them), so the slab grows without relocating.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  /// Below this queue length tombstones are too cheap to chase.
  static constexpr std::size_t kCompactMin = 64;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct HeapEntry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct EntryAfter {
    /// Min-heap on (at, seq) through std::push_heap's max-heap calls.
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  detail::EventRecord& record_at(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  const detail::EventRecord& record_at(std::uint32_t slot) const noexcept {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  /// Validates `at`, then pops a free slot (growing the slab by one
  /// chunk when the free list is dry).
  std::uint32_t acquire_slot(SimTime at);
  /// Retires a slot: drops any leftover action, advances the
  /// generation (invalidating every outstanding handle/entry) and
  /// returns the slot to the free list.
  void release_slot(std::uint32_t slot) noexcept;
  void push_entry(SimTime at, std::uint32_t slot, std::uint32_t generation);
  void grow_slab();

  void cancel_event(std::uint32_t slot, std::uint32_t generation) noexcept;
  bool event_pending(std::uint32_t slot,
                     std::uint32_t generation) const noexcept;

  /// Pops tombstoned entries (cancelled events) off the heap top. Every
  /// stale entry was counted at cancel time, so a zero count proves the
  /// top is live without touching its record.
  void drop_cancelled() const {
    if (tombstones_ != 0) [[unlikely]] drop_cancelled_slow();
  }
  void drop_cancelled_slow() const;
  /// Rebuilds the heap without tombstones once they are the majority.
  void maybe_compact();
  std::uint32_t intern_component(std::string_view component);
  /// Cold path of run_one: wall-clock the action and feed the profiler.
  /// Outlined (and kept out-of-line) so the unprofiled hot path stays
  /// small — the steady_clock machinery would otherwise bloat run_one.
  void dispatch_profiled(detail::InlineAction& action,
                         std::uint32_t component_id);

  /// Binary heap over plain 24-byte entries; mutable so empty() and
  /// next_time() can drop tombstones, exactly like the previous lazy
  /// deletion did.
  mutable std::vector<HeapEntry> heap_;
  mutable std::size_t tombstones_ = 0;

  std::vector<std::unique_ptr<detail::EventRecord[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t slot_count_ = 0;
  /// Slot/generation of the event currently being dispatched; lets
  /// cancel() distinguish "still queued" (a heap tombstone appears) from
  /// "cancelling myself mid-dispatch" (its entry was already popped).
  std::uint32_t running_slot_ = kNoSlot;
  std::uint32_t running_generation_ = 0;

  /// Interned component labels; index 0 is the unlabeled sentinel. The
  /// table stays tiny (one entry per distinct label literal), so interning
  /// is a short pointer-compare scan.
  std::vector<std::string_view> components_{std::string_view{}};
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  SimTime last_dispatched_ = SimTime::zero();
  obs::KernelProfiler* profiler_ = nullptr;

  obs::Counter obs_slots_;              ///< sched.pool.slots
  obs::Counter obs_action_inline_;      ///< sched.pool.action.inline
  obs::Counter obs_action_heap_;        ///< sched.pool.action.heap
  obs::Counter obs_cancelled_;          ///< sched.pool.cancelled
  obs::Counter obs_compactions_;        ///< sched.pool.compactions
};

inline void EventId::cancel() noexcept {
  if (scheduler_ != nullptr) scheduler_->cancel_event(slot_, generation_);
}

inline bool EventId::pending() const noexcept {
  return scheduler_ != nullptr &&
         scheduler_->event_pending(slot_, generation_);
}

}  // namespace cavenet::netsim

#endif  // CAVENET_NETSIM_SCHEDULER_H
