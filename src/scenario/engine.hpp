#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "traffic/source.hpp"
#include "workload/cluster.hpp"

namespace mltcp::scenario {

/// What a JobArrival callback sees: the run's own world, so arrivals build
/// their JobSpec against this run's hosts and start the job in place.
class EngineContext {
 public:
  EngineContext(sim::Simulator& simulator, net::Topology& topology,
                workload::Cluster& cluster)
      : sim_(simulator), topo_(topology), cluster_(cluster) {}

  sim::Simulator& simulator() { return sim_; }
  net::Topology& topology() { return topo_; }
  workload::Cluster& cluster() { return cluster_; }

  /// Shard owning `node` (0 in serial runs). Arrival callbacks that start
  /// jobs under sharded execution wrap the start in
  /// sim::Simulator::ShardGuard(simulator(), shard_of(sender_host)) so the
  /// job's events land in the shard that owns its senders.
  int shard_of(const net::Node* node) const {
    return shard_mapper_ ? shard_mapper_(node) : 0;
  }

 private:
  friend class ScenarioEngine;

  sim::Simulator& sim_;
  net::Topology& topo_;
  workload::Cluster& cluster_;
  std::function<int(const net::Node*)> shard_mapper_;  ///< Null when serial.
};

/// Replays a Scenario against one simulation run. One engine per run; the
/// engine must outlive the run (it owns the replay timer and the context
/// handed to arrival callbacks).
///
/// Determinism: the replay is a pure function of the scenario and the run's
/// seed — events fire in (time, insertion-order) order off a single timer,
/// faults consume randomness only from their own per-link streams, and an
/// empty scenario schedules nothing at all, leaving the run byte-identical
/// to one without an engine.
class ScenarioEngine {
 public:
  ScenarioEngine(sim::Simulator& simulator, net::Topology& topology,
                 workload::Cluster& cluster);

  ScenarioEngine(const ScenarioEngine&) = delete;
  ScenarioEngine& operator=(const ScenarioEngine&) = delete;

  /// Installs the scenario and schedules its replay. Call once, before (or
  /// during) the run; events whose time is already past fire immediately.
  /// Throws std::invalid_argument, naming the action, its time and the bad
  /// value, when a link action names an unknown node or a non-adjacent
  /// pair, a link_rate is not positive, a drop_burst probability lies
  /// outside [0, 1] or a background_burst host index is out of range. Job
  /// names are not checked: a job_arrival may create the job later.
  void install(const Scenario& scenario);

  // -- Barrier replay (sharded execution) ----------------------------------

  /// Sharded runs: maps a node to the shard that owns it, so actions that
  /// initiate traffic (BackgroundBurst sends, TrafficBurst lanes, JobArrival
  /// spawns via EngineContext) place their events in the right shard's
  /// queue; `shards` is the shard count, one traffic lane per shard. It also
  /// switches the engine to barrier replay: install() arms no timer, and a
  /// coordinator (pdes::ShardedRunner) pulls events through
  /// next_event_time()/apply_through() at global barriers instead. Call
  /// before install(); unset = serial replay off the engine's timer.
  void set_shard_mapper(std::function<int(const net::Node*)> mapper,
                        int shards) {
    assert(events_.empty() && "set_shard_mapper() must precede install()");
    ctx_.shard_mapper_ = std::move(mapper);
    shards_ = shards;
  }

  /// Time of the next unapplied event; kTimeInfinity when drained.
  /// Barrier-replay use.
  sim::SimTime next_event_time() const {
    return next_ < events_.size() ? events_[next_].at : sim::kTimeInfinity;
  }

  /// Applies every unapplied event with `at <= when`, in (time, insertion)
  /// order. Barrier-replay use: the caller guarantees the simulation is at
  /// a global barrier at `when`.
  void apply_through(sim::SimTime when) {
    while (next_ < events_.size() && events_[next_].at <= when) {
      apply(events_[next_]);
      ++next_;
    }
  }

  /// Events applied so far.
  int applied_events() const { return applied_; }
  /// Job events dropped because the named job did not exist when they
  /// applied (asserts in debug builds; released binaries skip and count).
  int skipped_events() const { return skipped_; }

  /// Traffic sources spawned by TrafficBurst events, in apply order, so
  /// reports can read their FCT records after the run.
  const std::vector<std::unique_ptr<traffic::TrafficSource>>&
  traffic_sources() const {
    return traffic_;
  }
  /// The source installed for the TrafficBurst labelled `label` (first
  /// match; nullptr if that event has not applied).
  const traffic::TrafficSource* traffic_source(const std::string& label)
      const;

 private:
  void validate(const Event& e) const;
  void on_timer();
  void apply(const Event& e);
  /// The directed link between two named nodes (null if not adjacent).
  net::Link* link(const std::string& a, const std::string& b) const;
  workload::Channel* background_flow(int src_host, int dst_host);
  void trace_applied(const Event& e);

  sim::Simulator& sim_;
  net::Topology& topo_;
  workload::Cluster& cluster_;
  EngineContext ctx_;
  std::vector<Event> events_;  ///< Sorted by (at, insertion order).
  std::size_t next_ = 0;
  sim::Timer timer_;  ///< Serial replay only.
  int shards_ = 1;
  /// Legacy background channels, keyed by (src, dst) host index so repeated
  /// bursts between a pair share one connection.
  std::map<std::pair<int, int>, workload::Channel*> bg_flows_;
  /// Engine-owned traffic-matrix sources, one per applied TrafficBurst.
  std::vector<std::unique_ptr<traffic::TrafficSource>> traffic_;
  std::vector<std::string> traffic_labels_;  ///< Parallel to traffic_.
  int applied_ = 0;
  int skipped_ = 0;
};

}  // namespace mltcp::scenario
