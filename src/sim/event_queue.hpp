#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_callback.hpp"
#include "sim/indexed_heap.hpp"
#include "sim/time.hpp"

namespace mltcp::sim {

/// Identifies a scheduled event so it can be cancelled. An id encodes a slot
/// index plus the slot's generation, which advances each time the slot is
/// released, so ids from a reused slot never alias an earlier event:
/// cancel()/pending() on a stale id are exact no-ops.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

class Timer;  // timer.hpp: owns one slot of this queue across rearms.

/// Min-heap of timestamped callbacks. Events at equal timestamps fire in
/// ascending order of a 64-bit tiebreak key. Ordinary events get
/// `kOrdinalBand | push-ordinal` — scheduling order (FIFO), which keeps
/// serial runs deterministic. Callers that need a tie order independent of
/// scheduling history (the requirement for sharded PDES runs to reproduce
/// serial output bit-for-bit: scheduling order is partition-dependent, see
/// src/pdes) pass an explicit canonical key below kOrdinalBand via
/// schedule_keyed()/Timer::arm_at_keyed — link deliveries encode
/// (link rank, per-link FIFO ordinal), and scenario barriers take key 0 so
/// they apply before everything else at their instant.
///
/// Engineered for the packet hot path (three trips per simulated packet):
///  - callbacks are EventCallback (inline small-buffer storage), so the
///    steady-state schedule/fire cycle performs zero heap allocations;
///  - each event owns a slot in a free-list table, and its id carries the
///    slot's generation, so validating an id is one compare against a flat
///    uint32 array, with no hashing;
///  - callback payloads live in chunked, address-stable storage, so a firing
///    callback runs in place (no move-out copy) even when it schedules new
///    events, and timer slots never relocate;
///  - ordering lives in an IndexedMinHeap4 of 24-byte (timestamp, sequence,
///    slot) entries that knows each slot's position: cancel removes the
///    entry and a timer rearm re-keys it in place, so the heap holds exactly
///    the pending events.
class EventQueue {
 public:
  /// High bit of the tiebreak key: set on ordinary (push-ordinal) events,
  /// clear on canonical keys, so every canonical key sorts before every
  /// ordinary event at the same timestamp.
  static constexpr std::uint64_t kOrdinalBand = 1ull << 63;
  /// Canonical key of a scenario barrier event: applies before anything
  /// else — deliveries included — at its instant (the serial twin of the
  /// sharded runner's global-barrier semantics).
  static constexpr std::uint64_t kBarrierKey = 0;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` to run at absolute time `when`, in push order among the
  /// ordinary events of that instant. The callable is constructed directly
  /// in slot storage: the closure never exists on the caller's stack, saving
  /// a capture-sized copy per schedule on the packet hot path.
  template <typename F>
  EventId schedule(SimTime when, F&& fn) {
    return emplace(when, kOrdinalBand, std::forward<F>(fn));
  }

  /// Schedules `fn` at `when` with an explicit canonical tiebreak key
  /// (must be below kOrdinalBand). Used for events whose same-timestamp
  /// order must not depend on scheduling history — see the class comment.
  template <typename F>
  EventId schedule_keyed(SimTime when, std::uint64_t key, F&& fn) {
    return emplace(when, key, std::forward<F>(fn));
  }

  /// Cancels a pending event. Cancelling an already-fired or unknown id is a
  /// harmless no-op. Returns true if the event was pending.
  bool cancel(EventId id);

  /// True when an event with this id is still waiting to fire.
  bool pending(EventId id) const;

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Timestamp of the next event; kTimeInfinity when empty.
  SimTime next_time() const {
    return heap_.empty() ? kTimeInfinity : heap_.top().when;
  }

  /// Pops and runs the next event, returning its timestamp.
  /// Precondition: !empty().
  SimTime pop_and_run() {
    SimTime when = 0;
    pop_and_run_before_key(kTimeInfinity, kKeyInfinity, &when);
    return when;
  }

  /// Fused peek + pop for the simulator's run loop: if the next event
  /// fires at or before `deadline`, stores its timestamp to `*clock` (before
  /// invoking the callback, so the clock reads the event's time while it
  /// executes), runs it, and returns true. Otherwise leaves the event queued
  /// and returns false. One front-of-heap inspection per event instead of
  /// the two a separate next_time()/pop_and_run() pair costs.
  /// Precondition: !empty().
  bool pop_and_run_before(SimTime deadline, SimTime* clock) {
    return pop_and_run_before_key(deadline, kKeyInfinity, clock);
  }

  /// The one run body behind every pop: runs the front event iff
  /// (when, key) < (when_limit, key_limit) lexicographically. The sharded
  /// runner calls it directly as its local-burst primitive — it drains
  /// exactly the events that canonically precede the next cross-shard
  /// import. Precondition: !empty().
  bool pop_and_run_before_key(SimTime when_limit, std::uint64_t key_limit,
                              SimTime* clock);

  /// Backing-store sizes, exposed so tests can assert that cancels and
  /// rearms leave nothing behind (see test_event_engine.cpp).
  std::size_t heap_entries() const { return heap_.size(); }
  std::size_t slot_capacity() const { return gens_.size(); }

 private:
  friend class Timer;

  static constexpr std::uint32_t kNullSlot = 0xffffffffu;
  /// Key bound above every key, for pops limited by time alone: no push
  /// ordinal reaches it.
  static constexpr std::uint64_t kKeyInfinity = ~0ull;
  static constexpr std::uint32_t kSlotChunkShift = 8;
  static constexpr std::uint32_t kSlotChunkSize = 1u << kSlotChunkShift;

  /// One heap element: 24 bytes. `seq` is the tiebreak key at equal
  /// timestamps — `kOrdinalBand | push ordinal` for ordinary events (FIFO),
  /// a canonical key below the band otherwise; `id` is the event's slot.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t id;

    /// (when, seq) lexicographic order, written without short-circuiting
    /// so the compiler can select branchlessly.
    friend bool operator<(const HeapEntry& a, const HeapEntry& b) {
      return (a.when < b.when) | ((a.when == b.when) & (a.seq < b.seq));
    }
  };

  /// Per-slot storage that must not move: one-shot callbacks run in place
  /// from here, and timer slots keep a back-pointer to their Timer (which
  /// owns the callback) across rearms. Allocated in fixed-size chunks
  /// so addresses are stable while the table grows.
  struct SlotPayload {
    // Metadata first: for small captures, the timer tag and the callback
    // header all land on the slot's first cache line.
    Timer* timer = nullptr;
    EventCallback fn;
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot) + 1) << 32 | gen;
  }
  /// Decodes an id: its slot if the id was issued for the slot's current
  /// occupant, kNullSlot for stale ids and ids this queue never issued.
  std::uint32_t slot_of(EventId id) const {
    const std::uint64_t hi = id >> 32;
    if (hi == 0 || hi > gens_.size()) return kNullSlot;
    const auto slot = static_cast<std::uint32_t>(hi - 1);
    return gens_[slot] == static_cast<std::uint32_t>(id) ? slot : kNullSlot;
  }

  SlotPayload& payload(std::uint32_t slot) {
    return chunks_[slot >> kSlotChunkShift][slot & (kSlotChunkSize - 1)];
  }

  std::uint32_t acquire_slot();
  /// Returns a slot to the free list; its generation advances, so every id
  /// issued for it goes stale.
  void release_slot(std::uint32_t slot);

  /// The one schedule body: fills a fresh slot and pushes it under `key`.
  template <typename F>
  EventId emplace(SimTime when, std::uint64_t key, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    payload(slot).fn.emplace(std::forward<F>(fn));
    push_entry(when, key, slot);
    return make_id(slot, gens_[slot]);
  }

  /// Queues `slot` at (when, key), replacing its queued entry if it has
  /// one. `key` is a canonical key below kOrdinalBand, or kOrdinalBand
  /// itself for "the next push ordinal" (FIFO). Every call consumes one.
  void push_entry(SimTime when, std::uint64_t key, std::uint32_t slot) {
    assert(key <= kOrdinalBand && "canonical keys live below the ordinal band");
    const std::uint64_t ordinal = seq_++;
    heap_.push(HeapEntry{
        when, key == kOrdinalBand ? kOrdinalBand | ordinal : key, slot});
  }

  // Timer support (slots that persist across fires).
  std::uint32_t timer_bind(Timer* t);
  void timer_release(std::uint32_t slot);
  void timer_arm(std::uint32_t slot, SimTime when, std::uint64_t key) {
    push_entry(when, key, slot);
  }
  void timer_cancel(std::uint32_t slot) { heap_.remove(slot); }
  bool timer_pending(std::uint32_t slot) const {
    return heap_.contains(slot);
  }

  IndexedMinHeap4<HeapEntry> heap_;  ///< Exactly the pending events.
  std::vector<std::uint32_t> gens_;  ///< Per-slot generation.
  std::vector<std::unique_ptr<SlotPayload[]>> chunks_;
  /// Recycled slot indices, LIFO. A plain stack (not an intrusive list
  /// through the payloads) so acquiring a slot never chases a pointer into
  /// cold payload memory.
  std::vector<std::uint32_t> free_;
  std::uint64_t seq_ = 0;  ///< Total pushes; FIFO tiebreak source.
};

}  // namespace mltcp::sim
