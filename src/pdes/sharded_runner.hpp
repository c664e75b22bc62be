#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "pdes/channel.hpp"
#include "pdes/partition.hpp"
#include "scenario/engine.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace mltcp::pdes {

/// Per-shard execution counters for one run.
struct ShardStats {
  std::uint64_t imports = 0;       ///< Cross-shard deliveries executed.
  std::uint64_t null_updates = 0;  ///< LBTS advances published outbound.
  std::uint64_t stalls = 0;        ///< Blocked waits / no-progress rounds.
  std::uint64_t max_inbound_backlog = 0;  ///< Deepest channel drain seen.
};

/// Conservative-lookahead parallel executor for one simulation: runs each
/// shard of a Partition on its own event queue, connected by per-cut-link
/// CrossShardChannels carrying timestamped deliveries plus null messages
/// (LBTS advances). Each shard executes events strictly below the minimum
/// of its inbound LBTS values, so no event can ever arrive in a shard's
/// past — the classic Chandy–Misra–Bryant discipline, with the link
/// propagation delay as the per-channel lookahead.
///
/// Determinism: a shard's execution is a pure function of its queue and its
/// inbound delivery streams. Every event carries a 64-bit tiebreak key and
/// executes in (when, key) order; delivery events use a canonical key that
/// depends only on the model (link construction rank + wire FIFO ordinal,
/// below EventQueue::kOrdinalBand — see Link::delivery_key), identical
/// whether the delivery travels through the local queue or a cross-shard
/// channel. Imports therefore merge against local work in exactly the
/// serial engine's total order, and the remaining ordinal-keyed events are
/// partition-invariant by induction (all cross-shard interaction flows
/// through deliveries). The byte-identity tests (tests/test_pdes.cpp)
/// enforce that 1-shard, N-shard cooperative and N-shard threaded runs
/// produce identical model state.
///
/// Two schedulers share the identical per-shard step function (so their
/// outputs cannot differ):
///  - kCooperative: round-robins every shard on the calling thread. Zero
///    threading overhead — the right mode on a single core, and the
///    reference for the determinism tests.
///  - kThreaded: one worker thread per shard, blocking on eventcount
///    signals when a neighbour's LBTS pins them. The mode that buys
///    wall-clock speedup on multi-core hosts.
/// kAuto picks threaded when the host has at least as many cores as there
/// are shards, cooperative otherwise.
///
/// Limitations: no tracer may be attached to the simulator (Perfetto export
/// remains a serial-mode guarantee; the constructor throws), and a scenario
/// engine must be given the partition's shard map
/// (ScenarioEngine::set_shard_mapper) so its events apply at global
/// barriers between phases instead of on a single shard's timer.
class ShardedRunner {
 public:
  enum class Mode { kAuto, kCooperative, kThreaded };

  /// Installs delivery sinks on every cut link. The partition must have
  /// been computed against `topo`, and the simulator must already be
  /// configured with `partition.shards` contexts (configure_shards);
  /// throws std::invalid_argument otherwise, or when a tracer is attached.
  ShardedRunner(sim::Simulator& simulator, net::Topology& topo,
                const Partition& partition, Mode mode = Mode::kAuto);
  /// Uninstalls the sinks, restoring local delivery.
  ~ShardedRunner();

  ShardedRunner(const ShardedRunner&) = delete;
  ShardedRunner& operator=(const ShardedRunner&) = delete;

  /// Attaches a scenario engine in barrier replay (set_shard_mapper): its
  /// events become global barriers — all shards run up to (exclusive) each
  /// event time, the event applies serially on the calling thread, and
  /// execution resumes.
  void set_scenario(scenario::ScenarioEngine* engine) { engine_ = engine; }

  /// Runs every shard until simulated time `deadline` (inclusive, matching
  /// Simulator::run_until); every shard clock ends at `deadline`.
  void run_until(sim::SimTime deadline);

  ShardStats totals() const;
  int shards() const { return static_cast<int>(shards_.size()); }
  /// Worker threads the last run_until used (1 = cooperative).
  int workers() const { return workers_; }

  /// Publishes per-shard counters as pdes/shard<i>/... plus pdes totals.
  void export_metrics(telemetry::MetricRegistry& registry) const;

 private:
  /// Held by unique_ptr: the embedded ShardSignal (mutex + condvar) pins
  /// the address, and worker threads keep references across the run.
  struct Shard {
    int index = 0;
    sim::Simulator::ShardContext* ctx = nullptr;
    std::vector<CrossShardChannel*> inbound;
    std::vector<CrossShardChannel*> outbound;
    ShardSignal signal;
    ShardStats stats;
    /// Last published execution frontier; republish only on change.
    sim::SimTime front = -1;
  };

  /// One scheduling quantum for shard `s` against inclusive time bound
  /// `bound`: drains channels, executes every currently-safe event, then
  /// publishes the new frontier to downstream shards. Returns true if it
  /// executed events or moved the frontier (progress in the null-message
  /// fixed-point sense). Caller must hold the shard's ShardGuard.
  bool pump(Shard& s, sim::SimTime bound);

  /// Re-grounds every channel's LBTS and invalidates the published-frontier
  /// cache. Must run whenever events were injected outside the protocol
  /// (setup, scenario applies, between run_until calls) while all shards
  /// are at rest.
  void reset_frontiers();

  /// Runs all shards until every frontier exceeds `bound` (inclusive). The
  /// cooperative scheduler throws std::logic_error if a full round makes no
  /// progress (the fixed point stopped short of the bound).
  void run_phase(sim::SimTime bound);
  void run_phase_cooperative(sim::SimTime bound);
  void run_phase_threaded(sim::SimTime bound);

  sim::Simulator& sim_;
  net::Topology& topo_;
  Mode mode_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<CrossShardChannel>> channels_;
  scenario::ScenarioEngine* engine_ = nullptr;
  std::vector<ShardStats> stats_;
  int workers_ = 1;
};

}  // namespace mltcp::pdes
