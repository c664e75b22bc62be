#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_callback.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace mltcp::telemetry {
class Tracer;
}

namespace mltcp::sim {

class Simulator;

namespace detail {
/// Thread-local shard binding: which Simulator (if any) the current thread
/// is executing a shard of, and which shard context that is. Two scalar
/// constant-initialized pointers, so the hot-path read needs no
/// initialization guard and touches only the first one on the serial path;
/// a thread that never entered a shard reads nullptr and every Simulator
/// call falls through to its root (serial) context.
extern constinit thread_local const Simulator* tls_bound_sim;
extern constinit thread_local void* tls_bound_ctx;
}  // namespace detail

/// Owns the simulation clock and event queue. All model components hold a
/// reference to one Simulator and schedule work through it.
///
/// Sharded execution (src/pdes): configure_shards(n) gives the simulator n
/// independent (clock, event queue) contexts. Model components keep calling
/// the same now()/schedule() API; calls resolve against the context of the
/// shard the calling thread is executing (bound via ShardGuard during setup
/// and by the PDES coordinator's worker loop during the run), so events a
/// component schedules for itself always land in its owning shard's queue.
/// A thread with no binding — every serial run — resolves to the root
/// context (shard 0) at the cost of one thread-local load and compare.
class Simulator {
 public:
  /// One shard's execution state. Shard 0 is the root context, which doubles
  /// as the whole simulation's state when running serially.
  struct ShardContext {
    EventQueue queue;
    SimTime now = 0;
    std::uint64_t executed = 0;
  };

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return ctx().now; }

  /// Schedules `fn` to run `delay` from now. Negative delays are clamped to 0
  /// (fire "immediately", after currently-runnable events at `now`). The
  /// callable is forwarded through to the queue, which constructs it
  /// directly in event-slot storage.
  template <typename F>
  EventId schedule(SimTime delay, F&& fn) {
    ShardContext& c = ctx();
    return c.queue.schedule(c.now + (delay > 0 ? delay : 0),
                            std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute time `when` (clamped to now()).
  template <typename F>
  EventId schedule_at(SimTime when, F&& fn) {
    ShardContext& c = ctx();
    return c.queue.schedule(when > c.now ? when : c.now, std::forward<F>(fn));
  }

  /// Schedules `fn` to run `delay` from now with an explicit canonical
  /// tiebreak key (see EventQueue::schedule_keyed): at equal timestamps the
  /// event fires in key order, independent of scheduling history. Link
  /// delivery events use this so serial and sharded runs share one total
  /// event order.
  template <typename F>
  EventId schedule_keyed(SimTime delay, std::uint64_t key, F&& fn) {
    ShardContext& c = ctx();
    return c.queue.schedule_keyed(c.now + (delay > 0 ? delay : 0), key,
                                  std::forward<F>(fn));
  }

  bool cancel(EventId id) { return ctx().queue.cancel(id); }
  bool pending(EventId id) const { return ctx().queue.pending(id); }

  /// The calling thread's shard queue (the root queue when unbound); what
  /// sim::Timer handles bind against on their first arm.
  EventQueue& event_queue() { return ctx().queue; }

  /// Runs events until the queue drains or stop() is called. Serial
  /// execution on the root context; sharded runs go through
  /// pdes::ShardedRunner instead.
  void run();

  /// Runs events with timestamp <= `deadline`; the clock ends at `deadline`
  /// (or earlier if stopped / drained).
  void run_until(SimTime deadline);

  /// Requests that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  std::size_t pending_events() const;
  std::uint64_t events_executed() const;

  // -- Sharded execution support (see src/pdes) -----------------------------

  /// Splits the simulator into `n` shard contexts (shard 0 is the root
  /// context, keeping any events already scheduled). Call once, after the
  /// topology exists but before workload components are constructed, so
  /// their lazily-bound timers and setup events land in the right shard via
  /// ShardGuard. n == 1 is the serial configuration (a no-op).
  void configure_shards(int n);
  int shard_count() const {
    return 1 + static_cast<int>(extra_shards_.size());
  }
  /// Shard `i`'s context; 0 is the root. PDES-coordinator use.
  ShardContext& shard_context(int i) {
    return i == 0 ? root_ : *extra_shards_[static_cast<std::size_t>(i - 1)];
  }

  /// Binds the calling thread to shard `shard` of this simulator for the
  /// guard's lifetime: now()/schedule()/event_queue() resolve against that
  /// shard's context. Used by setup code placing per-shard work (job start
  /// events, traffic lanes) and by the PDES worker loop itself. Nests:
  /// restores the previous binding on destruction.
  class ShardGuard {
   public:
    ShardGuard(Simulator& simulator, int shard)
        : prev_sim_(detail::tls_bound_sim), prev_ctx_(detail::tls_bound_ctx) {
      detail::tls_bound_sim = &simulator;
      detail::tls_bound_ctx = &simulator.shard_context(shard);
    }
    ~ShardGuard() {
      detail::tls_bound_sim = prev_sim_;
      detail::tls_bound_ctx = prev_ctx_;
    }
    ShardGuard(const ShardGuard&) = delete;
    ShardGuard& operator=(const ShardGuard&) = delete;

   private:
    const Simulator* prev_sim_;
    void* prev_ctx_;
  };

  /// Telemetry hook: components reach the tracer of their simulation through
  /// here (see telemetry::tracer_for). The Simulator only stores the pointer
  /// — it never dereferences it — so sim/ stays free of telemetry/ code.
  void set_tracer(telemetry::Tracer* tracer) { tracer_ = tracer; }
  telemetry::Tracer* tracer() const { return tracer_; }

  /// Hands out small per-simulation ordinals for telemetry track ids (jobs,
  /// links). Allocation follows construction order, which is deterministic,
  /// so trace output is reproducible across runs and thread counts.
  std::uint32_t allocate_trace_ordinal() { return trace_ordinals_++; }

  /// Dense per-simulation link ordinal, the static half of a link's
  /// canonical delivery key. Construction order — identical in serial and
  /// sharded runs, since sharding is configured only after the topology
  /// exists.
  std::uint32_t allocate_link_rank() { return link_ranks_++; }

 private:
  friend class ShardGuard;

  /// The calling thread's shard context: its bound shard when executing
  /// inside this simulator's sharded run, the root context otherwise. One
  /// thread-local load plus a pointer compare on the serial hot path.
  ShardContext& ctx() {
    if (detail::tls_bound_sim == this) {
      return *static_cast<ShardContext*>(detail::tls_bound_ctx);
    }
    return root_;
  }
  const ShardContext& ctx() const {
    if (detail::tls_bound_sim == this) {
      return *static_cast<const ShardContext*>(detail::tls_bound_ctx);
    }
    return root_;
  }

  ShardContext root_;
  /// Shards 1..n-1; unique_ptr so contexts never relocate (worker threads
  /// hold references while shard 0 stays the inline root).
  std::vector<std::unique_ptr<ShardContext>> extra_shards_;
  bool stopped_ = false;
  telemetry::Tracer* tracer_ = nullptr;
  std::uint32_t trace_ordinals_ = 0;
  std::uint32_t link_ranks_ = 0;
};

}  // namespace mltcp::sim
