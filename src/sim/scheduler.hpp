// Discrete-event scheduler: the time base for every simulation in ptecps.
//
// Events are (time, callback) pairs executed in nondecreasing time order;
// ties execute in scheduling order (FIFO), which makes zero-delay event
// cascades — ubiquitous in hybrid automata with chained transitions —
// deterministic.  Scheduled events can be cancelled through their handle
// (lazy deletion), which the hybrid engine uses to retract location-dwell
// timeouts when a location is left early.
//
// Storage is a slab: callbacks live in a vector of slots with an
// intrusive free list, and handles are (slot, generation) pairs.  The
// generation counter is bumped every time a slot is vacated (execution or
// cancellation), so a stale handle to a reused slot can never cancel the
// slot's new occupant, and the schedule/cancel hot path — dwell timeouts
// retracted on almost every location change — reuses slots instead of
// churning node allocations in hash maps.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/time.hpp"

namespace ptecps::sim {

/// Opaque handle to a scheduled event; value-semantic and cheap to copy.
/// A default-constructed handle is invalid.  Handles are generation-safe:
/// once the event ran or was cancelled, the handle stays dead even if its
/// storage slot is reused by a later event.
struct EventHandle {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;  // 0 = invalid; live slots carry odd generations
  bool valid() const { return gen != 0; }
};

class Scheduler {
 public:
  using Callback = std::function<void()>;

  /// Schedule `cb` at absolute time `at` (>= now). Returns a cancellable handle.
  EventHandle schedule_at(SimTime at, Callback cb);

  /// Schedule `cb` after `delay` (>= 0) from now.
  EventHandle schedule_in(SimTime delay, Callback cb);

  /// Cancel a pending event.  Returns false if it already ran, was already
  /// cancelled, or the handle is empty.
  bool cancel(EventHandle handle);

  /// Current simulated time (the time of the event being executed, or of
  /// the last executed event between events).
  SimTime now() const { return now_; }

  bool empty() const { return live_ == 0; }

  /// Time of the next pending event (kSimTimeInfinity if none).
  SimTime next_time() const;

  /// Execute the single next event.  Returns false if the queue is empty.
  bool step();

  /// Run events until the queue is exhausted or the next event is later
  /// than `until`; finally advances now() to `until` if it is larger.
  void run_until(SimTime until);

  /// Run everything (until empty).  Guarded by `max_events` against
  /// accidental infinite event chains.
  void run(std::uint64_t max_events = 100'000'000ULL);

  std::uint64_t pending_events() const { return live_; }

  /// Slab capacity (allocated slots, live or free) — observability for the
  /// slab-reuse tests.
  std::size_t slab_slots() const { return slots_.size(); }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// One slab slot.  `gen` is odd while the slot is occupied and even
  /// while it is free; vacating a slot (execute/cancel) bumps it, so any
  /// outstanding handle (which captured an odd generation) mismatches.
  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoSlot;
  };
  struct Entry {
    SimTime at;
    std::uint64_t seq;  // tie-break: FIFO among equal times
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Drop queue entries whose slot generation no longer matches (their
  /// event was cancelled, and possibly the slot already reused).
  void pop_stale();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t live_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, EntryLater> queue_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace ptecps::sim
