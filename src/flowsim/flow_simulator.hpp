#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/aggressiveness.hpp"
#include "net/topology.hpp"
#include "sim/indexed_heap.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "workload/backend.hpp"

namespace mltcp::flowsim {

/// Tuning knob of the flow-level backend.
struct FlowSimConfig {
  /// Escape hatch: water-fill the whole fabric on every recompute instead
  /// of only the dirty region — the reference the incremental path is
  /// differentially tested against. Model output (rates, completion times)
  /// is bit-identical either way; only the work done differs.
  bool full_recompute = false;
};

/// Counters exposed for benchmarks, telemetry and the fidelity gate.
struct FlowSimStats {
  std::int64_t recomputes = 0;        ///< Allocation passes run.
  std::int64_t full_recomputes = 0;   ///< Passes with the whole fabric dirty.
  std::int64_t waterfill_rounds = 0;  ///< Bottleneck-freeze rounds, total.
  /// Channels that entered a water-fill (re-rated). The incremental path's
  /// work metric: the full-recompute reference pays |sending| per pass,
  /// the dirty-set path only the affected closure.
  std::int64_t waterfill_channels = 0;
  /// Sending channels a pass left untouched (their converged rates were
  /// provably unaffected by the dirty region).
  std::int64_t frozen_skips = 0;
  std::int64_t dirty_links = 0;   ///< Links in dirty closures, summed.
  std::int64_t heap_updates = 0;  ///< Drain-heap inserts/re-keys/removals.
  std::int64_t messages_posted = 0;
  std::int64_t messages_completed = 0;
  std::int64_t reroutes = 0;  ///< Route re-resolutions after topology churn.
  std::int64_t stalls = 0;    ///< Messages that hit an unroutable/dead path.
};

/// Instantaneous allocation of one active channel, for tests and traces.
struct FlowRate {
  net::FlowId flow = net::kInvalidFlow;
  double rate_bps = 0.0;  ///< Current fluid rate (bits/s; 0 when stalled).
  double weight = 1.0;    ///< Max-min weight in force (F(bytes_ratio)).
};

/// Flow-level simulation backend: advances transfers as fluid flows at
/// weighted max-min fair rates over the real topology's routes instead of
/// packet by packet. The weight of an MLTCP channel is F(bytes_ratio) of
/// its in-flight message — the paper's observation is that MLTCP flows
/// converge to bandwidth shares proportional to F within a few RTTs, which
/// is exactly the steady state a weighted max-min allocation computes
/// directly. Non-MLTCP channels weigh 1.0 (plain TCP's equal share).
///
/// Event model: one timer drives the whole backend, armed from an indexed
/// min-heap of predicted drain/serialization instants. Every firing settles
/// and completes exactly the channels whose predicted instant arrived
/// (callbacks fire in channel-creation order — deterministic and
/// thread-count independent), starts queued messages, re-resolves routes if
/// the topology changed, refreshes MLTCP weights, and water-fills *only the
/// dirty region*: an arrival/completion/weight change marks the links on
/// the affected channel's route dirty, and the recompute re-rates just the
/// channels whose bottleneck sets transitively intersect those links (via
/// the link->flow adjacency), leaving every other converged rate — and its
/// heap entry — untouched. Because the weighted max-min allocation
/// decomposes over connected components of the flow/link sharing graph, the
/// skipped rates are exactly what a full water-fill would recompute, so the
/// incremental and full paths produce bit-identical trajectories (enforced
/// by FlowSimConfig::full_recompute differential tests and the fidelity
/// gate). Between firings every rate is constant, so predictions are exact
/// up to nanosecond rounding.
///
/// Faults are read straight off the shared net::Link state the scenario
/// engine already mutates: a down or blackholed link contributes zero
/// capacity (channels crossing it stall and wake on the topology change
/// hook), a drop-burst fault with probability p derates the link to
/// (1 - p) of its rate (the goodput a loss-recovery transport sustains).
/// Route changes re-resolve with the same per-flow ECMP hash the packet
/// backend uses (Switch::route_for_flow), so a channel rides the same
/// spine path at either fidelity. Routes resolve once into dense spans of
/// link indices in a shared pool (the switch-route layout), so the
/// water-fill inner loops are hash-free and pointer-chase-free.
class FlowSimulator : public workload::Backend {
 public:
  /// Installs itself as `topology`'s change observer (see
  /// Topology::set_change_hook); the topology must outlive the simulator.
  FlowSimulator(sim::Simulator& simulator, net::Topology& topology,
                FlowSimConfig cfg = {});
  ~FlowSimulator() override;

  FlowSimulator(const FlowSimulator&) = delete;
  FlowSimulator& operator=(const FlowSimulator&) = delete;

  workload::Channel* create_channel(const workload::ChannelSpec& spec)
      override;
  const char* name() const override { return "flowsim"; }

  const FlowSimStats& stats() const { return stats_; }

  /// Channels currently transferring (or stalled mid-message), with their
  /// allocated rates — a debugging/testing window into the allocation.
  std::vector<FlowRate> current_rates() const;

  /// Reference allocation: re-derives every sending channel's rate with a
  /// from-scratch global water-fill over the channels' resolved routes,
  /// independent of the incremental bookkeeping (dirty sets, link
  /// membership lists), without mutating any state. The differential tests
  /// assert current_rates() == reference_rates() after arbitrary event
  /// histories.
  std::vector<FlowRate> reference_rates() const;

 private:
  class FlowChannel;
  friend class FlowChannel;

  /// Drain-index entry: a channel's next due instant, keyed by the
  /// channel's ordinal.
  struct DrainEntry {
    sim::SimTime when;
    std::uint32_t id;
    friend bool operator<(const DrainEntry& a, const DrainEntry& b) {
      return (a.when < b.when) | ((a.when == b.when) & (a.id < b.id));
    }
  };

  /// One sending channel's membership in a link's flow list, with the hop
  /// index that lets a swap-removal repair the moved entry's slot.
  struct MemberEntry {
    FlowChannel* ch = nullptr;
    std::int32_t hop = 0;
  };

  void on_timer();
  /// Brings one channel's remaining-bytes account up to `now` at its
  /// current (constant) rate. Channels settle lazily — only when their
  /// rate is about to change, their weight is read, or they complete — so
  /// untouched channels cost nothing per event.
  void settle_channel(FlowChannel* ch, sim::SimTime now);
  /// Refreshes weights, water-fills the dirty closure, re-keys re-rated
  /// channels in the drain heap and arms the timer. `whole_fabric` marks a
  /// topology pass, whose closure is every sending channel.
  void reallocate(sim::SimTime now, bool whole_fabric);
  /// Called by channels when a message is posted on an idle channel and by
  /// the topology change hook.
  void schedule_recompute();

  /// Grows the dense per-link arrays (and refreshes cached capacities) if
  /// the topology gained links since the last pass.
  void ensure_link_arrays();
  void refresh_capacities();
  /// Resolves src->dst into a dense span of link indices in route_pool_.
  /// Returns false (and leaves the span empty) when no complete path
  /// exists.
  bool resolve_route_span(FlowChannel* ch);
  /// True when the channel has a resolved route and every link on it
  /// carries some capacity.
  bool route_alive(const FlowChannel* ch) const;

  void mark_link_dirty(std::int32_t li);
  void mark_route_dirty(const FlowChannel* ch);

  void add_membership(FlowChannel* ch);
  void remove_membership(FlowChannel* ch);

  void busy_add(FlowChannel* ch);
  void busy_remove(FlowChannel* ch);

  /// Predicted serialization-complete instant at the channel's current
  /// rate, one nanosecond past the exact drain time.
  sim::SimTime predict_drain(const FlowChannel* ch, sim::SimTime now) const;
  void heap_update(FlowChannel* ch, sim::SimTime key);
  void heap_remove(FlowChannel* ch);

  /// Transitions a sending channel to/from the stalled (dead-route) state,
  /// maintaining membership lists, heap entries and counters. A message
  /// start enters stalled and leaves through make_unstalled when its route
  /// is alive.
  void make_stalled(FlowChannel* ch, sim::SimTime now);
  void make_unstalled(FlowChannel* ch, sim::SimTime now);

  sim::Simulator& sim_;
  net::Topology& topo_;
  FlowSimConfig cfg_;
  sim::Timer timer_;

  std::vector<std::unique_ptr<FlowChannel>> channels_;
  /// Link* -> dense index, used only on the cold route-resolution path;
  /// the hot loops run on int32 spans.
  std::unordered_map<const net::Link*, std::int32_t> link_index_;
  std::vector<const net::Link*> link_ptrs_;  ///< Dense index -> link.
  std::vector<double> link_capacity_;  ///< Effective bytes/s (fault-derated).

  /// Route spans: per-channel (base, len) windows into route_pool_ (link
  /// indices) with slot_pool_ alongside (the channel's position inside each
  /// crossed link's member list).
  std::vector<std::int32_t> route_pool_;
  std::vector<std::int32_t> slot_pool_;

  /// link -> sending flows crossing it, the adjacency the dirty-set closure
  /// and the water-fill both walk. A removal swaps the last entry into the
  /// freed slot, and this order is the freeze order inside a bottleneck.
  std::vector<std::vector<MemberEntry>> link_members_;

  /// Water-fill scratch (sized to links, reused across recomputes).
  std::vector<double> link_residual_;
  std::vector<double> link_weight_sum_;
  std::vector<std::int32_t> link_active_;
  std::vector<std::int32_t> used_links_;  ///< Links touched this pass.

  /// Dirty-region bookkeeping.
  std::vector<std::uint8_t> link_dirty_;
  std::vector<std::int32_t> dirty_links_;

  std::vector<FlowChannel*> affected_;  ///< Closure of this pass.
  std::vector<FlowChannel*> due_;       ///< Heap entries popped this firing.
  std::vector<FlowChannel*> completed_scratch_;
  std::uint32_t visit_epoch_ = 0;

  sim::IndexedMinHeap4<DrainEntry> drain_heap_;

  /// Channels with a message in flight (sending or draining). Event-loop
  /// work scales with this concurrency bound, not with the total channel
  /// count — the property that lets a run carry hundreds of thousands of
  /// transfers over a long tail of mostly idle channels.
  std::vector<FlowChannel*> busy_;
  /// Idle channels whose queue gained a message since the last pass.
  std::vector<FlowChannel*> start_queue_;

  /// Sending, non-stalled channels: the population the frozen-skip metric
  /// is defined over.
  std::int64_t sending_count_ = 0;

  bool in_recompute_ = false;
  bool routes_dirty_ = false;
  FlowSimStats stats_;
};

}  // namespace mltcp::flowsim
