#include "sim/event_queue.hpp"

#include <cassert>
#include <utility>

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

void EventQueue::release_slot(std::uint32_t slot) { free_.push_back(slot); }

// ---------------------------------------------------------------- 4-ary heap

void EventQueue::push_entry(SimTime when, std::uint64_t key,
                            std::uint32_t slot, std::uint32_t gen) {
  assert(key <= kOrdinalBand && "canonical keys live below the ordinal band");
  const std::uint64_t ordinal = seq_++;
  heap_.push_back(HeapEntry{
      when, key == kOrdinalBand ? kOrdinalBand | ordinal : key, slot, gen});
  sift_up(heap_.size() - 1);
}

void EventQueue::sift_up(std::size_t i) {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

std::size_t EventQueue::min_child(std::size_t first_child,
                                  std::size_t n) const {
  if (first_child + 4 <= n) {
    // Full group of four: a fixed tournament of three compares, each a
    // conditional move — no data-dependent branches on effectively random
    // heap keys.
    const std::size_t a =
        before(heap_[first_child + 1], heap_[first_child]) ? first_child + 1
                                                           : first_child;
    const std::size_t b =
        before(heap_[first_child + 3], heap_[first_child + 2])
            ? first_child + 3
            : first_child + 2;
    return before(heap_[b], heap_[a]) ? b : a;
  }
  std::size_t best = first_child;
  for (std::size_t c = first_child + 1; c < n; ++c) {
    best = before(heap_[c], heap_[best]) ? c : best;
  }
  return best;
}

void EventQueue::sift_down(std::size_t i) const {
  const std::size_t n = heap_.size();
  const HeapEntry e = heap_[i];
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    const std::size_t best = min_child(first_child, n);
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::pop_front() const {
  assert(!heap_.empty());
  const HeapEntry e = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Bottom-up (Wegener) reinsertion of the displaced back element: descend
  // the min-child path to a leaf without comparing against `e` (the back
  // element almost always belongs near the bottom, so comparing on the way
  // down buys nothing but branch misses), then climb to its insertion point.
  std::size_t path[kMaxHeapDepth];
  std::size_t i = 0;
  int depth = 0;
  path[0] = 0;
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    i = min_child(first_child, n);
    path[++depth] = i;
  }
  while (depth > 0 && !before(heap_[path[depth]], e)) --depth;
  for (int d = 0; d < depth; ++d) heap_[path[d]] = heap_[path[d + 1]];
  heap_[path[depth]] = e;
}

void EventQueue::drop_dead_front() const {
  if (stale_ == 0) return;  // common case: nothing tombstoned anywhere
  while (!heap_.empty() && !entry_live(heap_[0])) {
    pop_front();
    --stale_;
  }
}

void EventQueue::maybe_compact() {
  // Lazy deletion bounds: once stale entries outnumber live ones, one O(n)
  // filter-and-rebuild pays for the ≥ n/2 cancels that created them, keeping
  // the heap within a constant factor of the live count no matter how
  // cancel/rearm-heavy the workload is. The rebuilt heap pops in the same
  // (when, seq) total order, so event execution order is unaffected.
  if (stale_ <= 64 || stale_ * 2 <= heap_.size()) return;
  std::size_t w = 0;
  for (const HeapEntry& e : heap_) {
    if (entry_live(e)) heap_[w++] = e;
  }
  heap_.resize(w);
  stale_ = 0;
  if (w > 1) {
    for (std::size_t i = (w - 2) / 4 + 1; i-- > 0;) sift_down(i);
  }
}

// ----------------------------------------------------------------- schedule

bool EventQueue::cancel(EventId id) {
  std::uint32_t slot, gen;
  if (!decode(id, slot, gen)) return false;
  if (gens_[slot] != gen) return false;
  SlotPayload& p = payload(slot);
  if (p.timer != nullptr) return false;  // timer slots cancel via their timer
  ++gens_[slot];  // odd -> even: disarmed; its heap entry is now stale
  ++stale_;
  --live_;
  p.fn.reset();
  release_slot(slot);
  maybe_compact();
  return true;
}

bool EventQueue::pending(EventId id) const {
  std::uint32_t slot, gen;
  if (!decode(id, slot, gen)) return false;
  return gens_[slot] == gen;
}

SimTime EventQueue::next_time() const {
  if (live_ == 0) return kTimeInfinity;
  drop_dead_front();
  return heap_[0].when;
}

bool EventQueue::pop_and_run_before_key(SimTime when_limit,
                                        std::uint64_t key_limit,
                                        SimTime* clock) {
  drop_dead_front();
  assert(!heap_.empty() && "pop on empty queue");
  const HeapEntry front = heap_[0];
  if (!before(front, HeapEntry{when_limit, key_limit, 0, 0})) return false;
  *clock = front.when;
  SlotPayload& p = payload(front.slot);
  // Start pulling the payload line in while the sift below runs; the two
  // are independent and the payload is usually the colder of the two.
  __builtin_prefetch(&p);
  pop_front();
  ++gens_[front.slot];  // consumed: odd -> even (no stale entry; it popped)
  --live_;
  if (p.timer == nullptr) {
    // Chunked payload storage is address-stable, so the callback runs in
    // place even if it schedules new events (which may grow the table); its
    // slot returns to the free list only after it finishes.
    p.fn();
    p.fn.reset();
    release_slot(front.slot);
  } else {
    // Timer fire: the callback lives in the QueueTimer (stable storage), so
    // it runs in place and may rearm itself; the slot stays bound.
    p.timer->fn_();
  }
  return true;
}

// -------------------------------------------------------------- QueueTimer

std::uint32_t EventQueue::timer_bind(QueueTimer* t) {
  const std::uint32_t slot = acquire_slot();
  payload(slot).timer = t;
  return slot;
}

void EventQueue::timer_release(std::uint32_t slot) {
  timer_cancel(slot);
  payload(slot).timer = nullptr;
  release_slot(slot);
}

void EventQueue::timer_arm(std::uint32_t slot, SimTime when,
                           std::uint64_t key) {
  if ((gens_[slot] & 1) != 0) {
    // Rearm in place: bump the generation so the superseded heap entry goes
    // stale; the callback is untouched. Two bumps keep the armed parity.
    gens_[slot] += 2;
    ++stale_;
    maybe_compact();
  } else {
    ++gens_[slot];  // even -> odd: armed
    ++live_;
  }
  push_entry(when, key, slot, gens_[slot]);
}

void EventQueue::timer_cancel(std::uint32_t slot) {
  if ((gens_[slot] & 1) == 0) return;
  ++gens_[slot];  // odd -> even: disarmed
  ++stale_;
  --live_;
  maybe_compact();
}

void QueueTimer::bind(EventQueue& queue, EventCallback fn) {
  assert(queue_ == nullptr && "timer already bound");
  assert(fn && "timer needs a callback");
  queue_ = &queue;
  fn_ = std::move(fn);
  slot_ = queue.timer_bind(this);
}

void QueueTimer::release() {
  if (queue_ == nullptr) return;
  queue_->timer_release(slot_);
  queue_ = nullptr;
  fn_.reset();
}

void QueueTimer::arm_keyed(SimTime when, std::uint64_t key) {
  assert(queue_ != nullptr && "arming an unbound timer");
  deadline_ = when;
  queue_->timer_arm(slot_, when, key);
}

void QueueTimer::cancel() {
  if (queue_ != nullptr) queue_->timer_cancel(slot_);
}

}  // namespace mltcp::sim
