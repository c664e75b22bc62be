#include "sim/event_queue.hpp"

#include <cassert>

#include "sim/timer.hpp"

namespace mltcp::sim {

// ---------------------------------------------------------------- slot table

std::uint32_t EventQueue::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(gens_.size());
  assert(slot != kNullSlot && "event slot table exhausted");
  if ((slot & (kSlotChunkSize - 1)) == 0) {
    chunks_.push_back(std::make_unique<SlotPayload[]>(kSlotChunkSize));
  }
  gens_.push_back(0);
  return slot;
}

void EventQueue::release_slot(std::uint32_t slot) {
  ++gens_[slot];
  free_.push_back(slot);
}

// ----------------------------------------------------------------- schedule

bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  // A fired event's id stays current while its callback runs; the slot is
  // out of the heap by then.
  if (slot == kNullSlot || !heap_.contains(slot)) return false;
  SlotPayload& p = payload(slot);
  assert(p.timer == nullptr && "timer slots cancel via their timer");
  heap_.remove(slot);
  p.fn.reset();
  release_slot(slot);
  return true;
}

bool EventQueue::pending(EventId id) const {
  const std::uint32_t slot = slot_of(id);
  return slot != kNullSlot && heap_.contains(slot);
}

bool EventQueue::pop_and_run_before_key(SimTime when_limit,
                                        std::uint64_t key_limit,
                                        SimTime* clock) {
  assert(!heap_.empty() && "pop on empty queue");
  const HeapEntry front = heap_.top();
  if (!(front < HeapEntry{when_limit, key_limit, 0})) return false;
  *clock = front.when;
  SlotPayload& p = payload(front.id);
  // Start pulling the payload line in while the heap pop below runs; the two
  // are independent and the payload is usually the colder of the two.
  __builtin_prefetch(&p);
  heap_.pop();
  if (p.timer == nullptr) {
    // Chunked payload storage is address-stable, so the callback runs in
    // place even if it schedules new events (which may grow the table); its
    // slot returns to the free list only after it finishes.
    p.fn();
    p.fn.reset();
    release_slot(front.id);
  } else {
    // Timer fire: the callback lives in the Timer (stable storage), so it
    // runs in place and may rearm itself; the slot stays bound.
    p.timer->fn_();
  }
  return true;
}

// -------------------------------------------------------------------- Timer

std::uint32_t EventQueue::timer_bind(Timer* t) {
  const std::uint32_t slot = acquire_slot();
  payload(slot).timer = t;
  return slot;
}

void EventQueue::timer_release(std::uint32_t slot) {
  heap_.remove(slot);
  payload(slot).timer = nullptr;
  release_slot(slot);
}

}  // namespace mltcp::sim
