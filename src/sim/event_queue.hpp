// A cancellable priority queue of timestamped events.
//
// Events with equal timestamps fire in insertion (FIFO) order, which makes
// simulations deterministic: the tie-break is a monotonically increasing
// sequence number, never an address or hash.
//
// Engineered for the hot loop of large runs (bench/fig17 drives ~1M tasks
// through it):
//  - a hand-rolled 4-ary implicit heap in one contiguous vector (arena)
//    whose sift operations *move* entries, so popping never copies a
//    std::function (std::priority_queue::top() forces a copy);
//  - a same-timestamp FIFO bucket: events pushed at exactly the current
//    time (after(0) cascades, e.g. fabric re-solves and ready-task
//    wakeups) append to a flat batch consumed front-to-back in O(1)
//    instead of churning the heap. Bucket entries always carry larger
//    sequence numbers than same-time heap entries (they were pushed
//    later), so the (time, seq) merge in pop() preserves exact FIFO order;
//  - a free-listed slot table for cancellation: every queued entry holds
//    a slot, and its EventId encodes (slot, generation). Firing or
//    cancelling bumps the slot's generation, so a handle that outlived
//    its event no longer matches and cancel() ignores it. Cancelled
//    entries stay in the heap/bucket until they surface and are skipped.
//
// The observable pop order is bit-identical to the legacy
// std::priority_queue implementation; golden-fingerprint tests pin this.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "prof/prof.hpp"
#include "sim/time.hpp"

namespace tlb::sim {

/// Opaque handle identifying a scheduled event; usable for cancellation.
/// Encodes (generation << 32) | slot; generations start at 1, so no
/// issued handle equals kInvalidEvent.
using EventId = std::uint64_t;

/// Invalid/empty event handle.
inline constexpr EventId kInvalidEvent = 0;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue() {
    // Release the alloc-accounting charge of entries still queued at
    // teardown (sim.event must balance to zero; entries are charged in
    // push() and released when physically removed).
    const std::size_t remaining =
        heap_.size() + (bucket_.size() - bucket_head_);
    if (remaining > 0) {
      prof::free_note(prof::AllocTag::SimEvent, remaining * sizeof(Entry));
    }
  }

  /// Schedules `cb` to fire at absolute time `t`. Returns a handle that can
  /// be passed to cancel().
  EventId push(SimTime t, Callback cb);

  /// Cancels a previously scheduled event. Cancelling an event that already
  /// fired (or was already cancelled) is a harmless no-op.
  void cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Timestamp of the earliest live event. Requires !empty().
  [[nodiscard]] SimTime next_time() const;

  /// Pops the earliest live event and returns its (time, callback).
  /// Requires !empty().
  std::pair<SimTime, Callback> pop();

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;  ///< insertion order
    std::uint32_t slot;
    std::uint32_t gen;  ///< the slot's generation when pushed
    Callback cb;
  };
  static bool earlier(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;  // FIFO for equal timestamps
  }
  /// False once the entry fired or was cancelled.
  [[nodiscard]] bool live(const Entry& e) const {
    return slot_gen_[e.slot] == e.gen;
  }
  /// Retires the slot's current handle and returns the slot for reuse.
  void release(std::uint32_t slot);

  void heap_push(Entry e);
  /// Removes the heap root (heap_[0]); the caller has already moved its
  /// callback out if it needs it.
  void heap_pop_root();
  /// Drops cancelled entries from the heap root and the bucket front.
  void skip_cancelled();
  [[nodiscard]] bool bucket_has_entry() const {
    return bucket_head_ < bucket_.size();
  }

  std::vector<Entry> heap_;  ///< 4-ary implicit min-heap by (time, id)
  /// Same-timestamp batch: entries at bucket_time_ == the time of the last
  /// pop, consumed front-to-back. Reset (and storage reused) once drained.
  std::vector<Entry> bucket_;
  std::size_t bucket_head_ = 0;
  SimTime bucket_time_ = 0.0;
  SimTime last_popped_ = 0.0;
  /// Current generation per slot; an entry is live iff its gen matches.
  std::vector<std::uint32_t> slot_gen_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace tlb::sim
