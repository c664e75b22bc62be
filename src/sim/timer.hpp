#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace mltcp::sim {

/// Reusable timer for periodic or frequently rearmed events (link
/// transmission-done, TCP RTO / pacing / delayed ACK, flow sampling): bind
/// the callback once, then rearm in place instead of the cancel + schedule
/// churn an EventId would require. The timer owns its callback and one
/// event-queue slot; a rearm re-keys the slot's queued entry, so it is one
/// heap operation with no callback destruction, reconstruction or
/// allocation. Arming clamps to now() like Simulator::schedule_at.
///
/// Determinism: every arm takes a fresh push ordinal, so event order is
/// identical to the cancel + schedule pattern it replaces.
///
/// The queue attachment is lazy: bind() records the simulator + callback,
/// and the first arm acquires a slot in the *calling thread's* shard queue
/// (Simulator::event_queue()). In serial runs that is always the root queue
/// — identical to eager binding. In sharded runs it means a timer fires in
/// the shard that first arms it (a receiver's delayed-ACK timer lands in
/// the receiver's shard, an RTO timer in the sender's), without components
/// knowing about shards at construction time.
///
/// Lifetime rules: destroy the timer before its Simulator (it returns its
/// slot on destruction), and never from inside its own callback.
class Timer {
 public:
  Timer() = default;
  Timer(Simulator& simulator, EventCallback fn) {
    bind(simulator, std::move(fn));
  }
  ~Timer() {
    if (queue_ != nullptr) queue_->timer_release(slot_);
  }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Binds the timer to a simulator and installs its callback. Must be
  /// unbound. The event-queue slot is acquired on first arm.
  void bind(Simulator& simulator, EventCallback fn) {
    assert(sim_ == nullptr && "Timer already bound");
    assert(fn && "Timer needs a callback");
    sim_ = &simulator;
    fn_ = std::move(fn);
  }

  /// (Re)arms the timer to fire `delay` from now, replacing any pending
  /// deadline. Negative delays clamp to 0 (fire "immediately", after
  /// currently-runnable events at now()).
  void arm(SimTime delay) { arm_at(sim_->now() + delay); }

  /// (Re)arms the timer at absolute time `when` (clamped to now()).
  void arm_at(SimTime when) { arm_at_keyed(when, EventQueue::kOrdinalBand); }

  /// Same, with an explicit canonical tiebreak key (see
  /// EventQueue::schedule_keyed); kOrdinalBand means push order. The
  /// scenario engine arms its replay timer with EventQueue::kBarrierKey so a
  /// scenario event applies before everything else at its instant —
  /// matching the sharded runner's global-barrier semantics exactly.
  void arm_at_keyed(SimTime when, std::uint64_t key) {
    assert(sim_ != nullptr && "Timer armed before bind");
    if (queue_ == nullptr) {
      queue_ = &sim_->event_queue();
      slot_ = queue_->timer_bind(this);
    }
    // Once attached, a timer belongs to one shard's queue for good:
    // rearming it from another shard would race that queue.
    assert(&sim_->event_queue() == queue_ &&
           "Timer rearmed from a different shard than it is attached to");
    const SimTime now = sim_->now();
    deadline_ = when > now ? when : now;
    queue_->timer_arm(slot_, deadline_, key);
  }

  /// Cancels the pending deadline, if any. The binding survives.
  void cancel() {
    if (queue_ != nullptr) queue_->timer_cancel(slot_);
  }
  bool pending() const {
    return queue_ != nullptr && queue_->timer_pending(slot_);
  }
  /// Deadline of the pending fire; meaningless unless pending().
  SimTime deadline() const { return deadline_; }

 private:
  friend class EventQueue;  // Runs fn_ in place when the slot fires.

  Simulator* sim_ = nullptr;
  EventQueue* queue_ = nullptr;  ///< Null until the first arm.
  std::uint32_t slot_ = 0;
  SimTime deadline_ = 0;
  EventCallback fn_;
};

}  // namespace mltcp::sim
