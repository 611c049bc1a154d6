#include "netsim/scheduler.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/kernel_profiler.h"

namespace cavenet::netsim {

bool Scheduler::run_one() {
  drop_cancelled();
  if (heap_.empty()) return false;

  const HeapEntry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
  heap_.pop_back();

  detail::EventRecord& rec = record_at(top.slot);
  last_dispatched_ = top.at;
  ++dispatched_;

  // The action runs in place in its slot. That is safe because the slot
  // stays reserved until the action returns: scheduling from inside the
  // handler cannot recycle it (it is not on the free list), and a
  // mid-dispatch cancel of the running event only bumps the generation —
  // see cancel_event. pending() on the running event therefore reports
  // true until it completes, matching the old shared_ptr kernel.
  running_slot_ = top.slot;
  running_generation_ = top.generation;
  if (profiler_ == nullptr) [[likely]] {
    rec.action();
  } else {
    dispatch_profiled(rec.action, rec.component_id);
  }
  running_slot_ = kNoSlot;

  // Retire the slot. Nothing else can have freed it during dispatch, so
  // this cannot double-release; the generation check keeps a self-cancel
  // (which already bumped it) from bumping twice.
  rec.action.reset();
  if (rec.generation == top.generation) ++rec.generation;
  free_.push_back(top.slot);
  return true;
}

__attribute__((noinline)) void Scheduler::dispatch_profiled(
    detail::InlineAction& action, std::uint32_t component_id) {
  const auto start = std::chrono::steady_clock::now();
  action();
  const auto end = std::chrono::steady_clock::now();
  profiler_->record(
      components_[component_id],
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
              .count()));
}

std::uint32_t Scheduler::acquire_slot(SimTime at) {
  if (at < last_dispatched_) {
    throw std::logic_error("scheduling into the past: " + at.to_string() +
                           " < " + last_dispatched_.to_string());
  }
  if (free_.empty()) [[unlikely]] grow_slab();
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  return slot;
}

void Scheduler::release_slot(std::uint32_t slot) noexcept {
  detail::EventRecord& rec = record_at(slot);
  rec.action.reset();
  ++rec.generation;
  free_.push_back(slot);
}

void Scheduler::push_entry(SimTime at, std::uint32_t slot,
                           std::uint32_t generation) {
  heap_.push_back(HeapEntry{at, next_seq_++, slot, generation});
  std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
}

void Scheduler::grow_slab() {
  chunks_.push_back(std::make_unique<detail::EventRecord[]>(kChunkSize));
  free_.reserve(free_.size() + kChunkSize);
  // Hand out low slot indices first; cosmetic, but early runs then touch
  // one cache-warm chunk.
  for (std::uint32_t i = 0; i < kChunkSize; ++i) {
    free_.push_back(slot_count_ + kChunkSize - 1 - i);
  }
  slot_count_ += kChunkSize;
  obs_slots_.inc(kChunkSize);
}

void Scheduler::cancel_event(std::uint32_t slot,
                             std::uint32_t generation) noexcept {
  if (slot >= slot_count_) return;
  detail::EventRecord& rec = record_at(slot);
  if (rec.generation != generation) return;  // expired or recycled
  obs_cancelled_.inc();
  if (slot == running_slot_ && generation == running_generation_) {
    // The running event is being cancelled from inside its own dispatch.
    // Its action is executing right now, so only invalidate the handle;
    // run_one drops the action and frees the slot when it returns.
    ++rec.generation;
    return;
  }
  // Eager release: the action (and every packet/pointer it captured)
  // dies now, not when the tombstone surfaces at the heap top.
  release_slot(slot);
  ++tombstones_;
  maybe_compact();
}

bool Scheduler::event_pending(std::uint32_t slot,
                              std::uint32_t generation) const noexcept {
  if (slot >= slot_count_) return false;
  return record_at(slot).generation == generation;
}

void Scheduler::drop_cancelled_slow() const {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (record_at(top.slot).generation == top.generation) return;
    std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
    heap_.pop_back();
    --tombstones_;
  }
}

void Scheduler::maybe_compact() {
  if (heap_.size() < kCompactMin || tombstones_ * 2 <= heap_.size()) return;
  std::erase_if(heap_, [this](const HeapEntry& e) {
    return record_at(e.slot).generation != e.generation;
  });
  std::make_heap(heap_.begin(), heap_.end(), EntryAfter{});
  tombstones_ = 0;
  obs_compactions_.inc();
}

std::uint32_t Scheduler::intern_component(std::string_view component) {
  // Labels are string literals, so the pointer compare almost always hits;
  // the content compare merges identical literals from different TUs.
  for (std::uint32_t i = 1; i < components_.size(); ++i) {
    if (components_[i].data() == component.data() ||
        components_[i] == component) {
      return i;
    }
  }
  components_.push_back(component);
  return static_cast<std::uint32_t>(components_.size() - 1);
}

void Scheduler::bind_stats(obs::StatsRegistry& registry) {
  obs_slots_ = registry.counter("sched.pool.slots");
  obs_action_inline_ = registry.counter("sched.pool.action.inline");
  obs_action_heap_ = registry.counter("sched.pool.action.heap");
  obs_cancelled_ = registry.counter("sched.pool.cancelled");
  obs_compactions_ = registry.counter("sched.pool.compactions");
  // Re-publish slab capacity grown before the registry was attached.
  obs_slots_.inc(slot_count_);
}

}  // namespace cavenet::netsim
