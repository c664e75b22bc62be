#pragma once

#include <cassert>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace mltcp::sim {

/// Simulator-clock convenience over QueueTimer: relative arming with the
/// same clamping rules as Simulator::schedule / schedule_at. This is the
/// handle model components use for their periodic or frequently rearmed
/// events (link transmission-done, TCP RTO / pacing / delayed ACK, flow
/// sampling): bind the callback once, then rearm in place instead of the
/// cancel + schedule churn an EventId would require.
///
/// The queue attachment is lazy: bind() records the simulator + callback,
/// and the first arm acquires a slot in the *calling thread's* shard queue
/// (Simulator::event_queue()). In serial runs that is always the root queue
/// — identical to eager binding. In sharded runs it means a timer fires in
/// the shard that first arms it (a receiver's delayed-ACK timer lands in
/// the receiver's shard, an RTO timer in the sender's), without components
/// knowing about shards at construction time.
///
/// Same lifetime rules as QueueTimer: destroy the timer before its
/// Simulator, and never from inside its own callback.
class Timer {
 public:
  Timer() = default;
  Timer(Simulator& simulator, EventCallback fn) {
    bind(simulator, std::move(fn));
  }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Binds the timer to a simulator and installs its callback. Must be
  /// unbound. The event-queue slot is acquired on first arm.
  void bind(Simulator& simulator, EventCallback fn) {
    assert(sim_ == nullptr && "Timer already bound");
    sim_ = &simulator;
    fn_ = std::move(fn);
  }
  bool bound() const { return sim_ != nullptr; }

  /// (Re)arms the timer to fire `delay` from now, replacing any pending
  /// deadline. Negative delays clamp to 0 (fire "immediately", after
  /// currently-runnable events at now()).
  void arm(SimTime delay) { arm_at(sim_->now() + delay); }

  /// (Re)arms the timer at absolute time `when` (clamped to now()).
  void arm_at(SimTime when) { arm_at_keyed(when, EventQueue::kOrdinalBand); }

  /// Same, with an explicit canonical tiebreak key (see
  /// EventQueue::schedule_keyed). The scenario engine arms its replay timer
  /// with EventQueue::kBarrierKey so a scenario event applies before
  /// everything else at its instant — matching the sharded runner's
  /// global-barrier semantics exactly.
  void arm_at_keyed(SimTime when, std::uint64_t key) {
    ensure_attached();
    inner_.arm_keyed(when > sim_->now() ? when : sim_->now(), key);
  }

  /// Cancels the pending deadline, if any. The binding survives.
  void cancel() {
    if (inner_.bound()) inner_.cancel();
  }
  bool pending() const { return inner_.bound() && inner_.pending(); }
  /// Deadline of the pending fire; meaningless unless pending().
  SimTime deadline() const { return inner_.deadline(); }

 private:
  void ensure_attached() {
    assert(sim_ != nullptr && "Timer armed before bind");
    if (!inner_.bound()) {
      inner_.bind(sim_->event_queue(), std::move(fn_));
    } else {
      // Once attached, a timer belongs to one shard's queue for good:
      // rearming it from another shard would race that queue.
      assert(&sim_->event_queue() == inner_.queue() &&
             "Timer rearmed from a different shard than it is attached to");
    }
  }

  Simulator* sim_ = nullptr;
  EventCallback fn_;
  QueueTimer inner_;
};

}  // namespace mltcp::sim
