#include "sim/scheduler.hpp"

#include <utility>

#include "util/require.hpp"
#include "util/text.hpp"

namespace ptecps::sim {

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNoSlot;
    ++slots_[slot].gen;  // even -> odd: occupied
    return slot;
  }
  PTE_CHECK(slots_.size() < kNoSlot, "event slab exhausted");
  slots_.push_back(Slot{nullptr, 1, kNoSlot});
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;
  ++s.gen;  // odd -> even: free; kills every outstanding handle
  s.next_free = free_head_;
  free_head_ = slot;
}

EventHandle Scheduler::schedule_at(SimTime at, Callback cb) {
  PTE_REQUIRE(cb != nullptr, "null callback");
  PTE_REQUIRE(at >= now_ - kTimeEps,
              util::cat("scheduling into the past: at=", at, " now=", now_));
  // Clamp tiny negative drift so queue order stays consistent with now().
  if (at < now_) at = now_;
  const std::uint32_t slot = acquire_slot();
  slots_[slot].cb = std::move(cb);
  const std::uint32_t gen = slots_[slot].gen;
  queue_.push(Entry{at, next_seq_++, slot, gen});
  ++live_;
  return EventHandle{slot, gen};
}

EventHandle Scheduler::schedule_in(SimTime delay, Callback cb) {
  PTE_REQUIRE(delay >= 0.0, "negative delay");
  return schedule_at(now_ + delay, std::move(cb));
}

bool Scheduler::cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  if (handle.slot >= slots_.size()) return false;
  if (slots_[handle.slot].gen != handle.gen) return false;  // ran / cancelled / reused
  release_slot(handle.slot);
  --live_;
  return true;
}

void Scheduler::pop_stale() {
  while (!queue_.empty() && slots_[queue_.top().slot].gen != queue_.top().gen)
    queue_.pop();
}

SimTime Scheduler::next_time() const {
  auto* self = const_cast<Scheduler*>(this);
  self->pop_stale();
  return queue_.empty() ? kSimTimeInfinity : queue_.top().at;
}

bool Scheduler::step() {
  pop_stale();
  if (queue_.empty()) return false;
  const Entry entry = queue_.top();
  queue_.pop();
  Slot& slot = slots_[entry.slot];
  PTE_CHECK(slot.cb != nullptr, "live queue entry without callback");
  Callback cb = std::move(slot.cb);
  release_slot(entry.slot);
  --live_;
  PTE_CHECK(entry.at >= now_ - kTimeEps, "event queue went backwards in time");
  now_ = std::max(now_, entry.at);
  cb();
  return true;
}

void Scheduler::run_until(SimTime until) {
  PTE_REQUIRE(until >= now_ - kTimeEps, "run_until into the past");
  while (true) {
    pop_stale();
    if (queue_.empty() || queue_.top().at > until + kTimeEps) break;
    step();
  }
  now_ = std::max(now_, until);
}

void Scheduler::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (step()) {
    PTE_CHECK(++n <= max_events, "scheduler exceeded max_events — runaway event chain?");
  }
}

}  // namespace ptecps::sim
