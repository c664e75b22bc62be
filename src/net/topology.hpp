#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"

namespace mltcp::net {

/// Cost accounting for one build_routes() pass, exposed so tests and
/// benchmarks can assert the build is O(V·E): one BFS per destination host,
/// never per (source, destination) pair.
struct RouteBuildStats {
  std::int64_t destinations = 0;    ///< Hosts routed to (BFS roots).
  std::int64_t directed_edges = 0;  ///< Directed links in the topology.
  std::int64_t edges_scanned = 0;   ///< Adjacency entries touched, total.
  double build_ms = 0.0;            ///< Wall time of the pass.
};

/// Owns every node and link of one simulated network and the flow-handler
/// table its hosts share; computes static shortest-path routes (with
/// equal-cost sets where the fabric offers multiple shortest paths — see
/// Switch::set_routes for the ECMP contract).
class Topology {
 public:
  explicit Topology(sim::Simulator& simulator) : sim_(simulator) {}

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  Host* add_host(const std::string& name);
  Switch* add_switch(const std::string& name);

  /// Creates a bidirectional connection (two directed links) between `a` and
  /// `b`. If an endpoint is a Host its uplink is set to the new egress link.
  void connect(Node& a, Node& b, double rate_bps, sim::SimTime delay,
               const QueueFactory& queue_factory);

  /// Populates every switch's forwarding table with BFS shortest paths,
  /// installing the full equal-cost next-hop set at every switch. One BFS
  /// per destination host: O(hosts · edges) total, so cluster-sized fabrics
  /// build in milliseconds (see route_build_stats()).
  /// Must be called after all connect() calls and before traffic starts.
  void build_routes();

  /// Costs of the most recent build_routes() pass.
  const RouteBuildStats& route_build_stats() const { return route_stats_; }

  /// Flips both directions between `a` and `b` (the fault model: a cable
  /// cut takes out the pair) and rebuilds every route with build_routes().
  /// No-op when both directions are already in the requested state.
  void set_link_pair_state(Node& a, Node& b, bool up);

  /// The directed link from `a` to `b`, or nullptr if they are not adjacent.
  Link* link_between(const Node& a, const Node& b) const;

  /// Node lookup by construction name (linear scan; nullptr if absent).
  /// Scenario scripts reference nodes by name, resolved once at apply time.
  Node* find_node(const std::string& name) const;

  const std::vector<Host*>& hosts() const { return hosts_; }
  const std::vector<Switch*>& switches() const { return switches_; }
  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }

  /// Outgoing (neighbour, link) pairs per node, indexed by the dense NodeId,
  /// in connect() order. This is how consumers recover a directed link's
  /// *source* node (links only store their destination): the PDES
  /// partitioner walks it to classify every link as shard-internal or cut.
  const std::vector<std::vector<std::pair<NodeId, Link*>>>& adjacency() const {
    return adjacency_;
  }

  Node* node(NodeId id) const;

  /// The flow-handler table every host of this topology registers with.
  const FlowDemux& flow_demux() const { return demux_; }

  sim::Simulator& simulator() { return sim_; }

  /// Registers the (single) observer notified whenever routes or link
  /// capacities change. Route-affecting entry points (build_routes,
  /// set_link_pair_state) fire it themselves; callers that
  /// mutate link state directly (Link::set_rate_bps / set_blackhole /
  /// set_fault_drop) must call notify_changed() afterwards. A flow-level
  /// backend uses this to re-resolve routes and recompute its allocation;
  /// the packet backend needs no observer — packets discover the new state
  /// hop by hop.
  void set_change_hook(std::function<void()> hook) {
    change_hook_ = std::move(hook);
  }

  /// Fires the change hook (no-op if none is installed).
  void notify_changed() {
    if (change_hook_) change_hook_();
  }

 private:
  /// One BFS from destination `d` over the reverse graph, installing every
  /// switch's route towards `d` into the tables build_routes() cleared.
  /// Skips down links. The BFS buffers are caller-owned so a pass over
  /// many destinations reuses them.
  void rebuild_destination(NodeId d, std::vector<std::int32_t>& dist,
                           std::vector<NodeId>& frontier,
                           std::vector<Link*>& ecmp);

  sim::Simulator& sim_;
  FlowDemux demux_;  ///< Declared before nodes_: outlives every host.
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Host*> hosts_;
  std::vector<Switch*> switches_;
  std::map<std::pair<NodeId, NodeId>, Link*> by_endpoints_;
  /// Outgoing (neighbour, link) pairs per node, indexed by the dense
  /// NodeId; entries appear in connect() order, which fixes ECMP candidate
  /// order.
  std::vector<std::vector<std::pair<NodeId, Link*>>> adjacency_;
  std::vector<std::uint8_t> is_switch_;  ///< Indexed by NodeId.
  RouteBuildStats route_stats_;
  std::function<void()> change_hook_;
};

/// A dumbbell: `hosts_per_side` hosts on each side of a two-switch
/// bottleneck, the topology of the paper's testbed.
struct DumbbellConfig {
  int hosts_per_side = 4;
  double host_rate_bps = 10e9;
  double bottleneck_rate_bps = 1e9;
  sim::SimTime host_delay = sim::microseconds(5);
  sim::SimTime bottleneck_delay = sim::microseconds(10);
  QueueFactory host_queue;        ///< Defaults to a deep drop-tail.
  QueueFactory bottleneck_queue;  ///< Defaults to a BDP-scaled drop-tail.
};

struct Dumbbell {
  std::unique_ptr<Topology> topology;
  std::vector<Host*> left;
  std::vector<Host*> right;
  Switch* left_switch = nullptr;
  Switch* right_switch = nullptr;
  Link* bottleneck = nullptr;          ///< left -> right direction.
  Link* bottleneck_reverse = nullptr;  ///< right -> left direction.
};

Dumbbell make_dumbbell(sim::Simulator& simulator, const DumbbellConfig& cfg);

/// A single-switch star with `n_hosts` hosts, each on its own access link.
struct StarConfig {
  int n_hosts = 4;
  double rate_bps = 1e9;
  sim::SimTime delay = sim::microseconds(10);
  QueueFactory queue;
};

struct Star {
  std::unique_ptr<Topology> topology;
  std::vector<Host*> hosts;
  Switch* hub = nullptr;
};

Star make_star(sim::Simulator& simulator, const StarConfig& cfg);

/// Two-tier leaf-spine: `racks` ToR switches with `hosts_per_rack` hosts
/// each, every ToR connected to every one of `spines` spine switches.
struct LeafSpineConfig {
  int racks = 2;
  int hosts_per_rack = 4;
  int spines = 1;
  double host_rate_bps = 10e9;
  double fabric_rate_bps = 10e9;
  sim::SimTime host_delay = sim::microseconds(5);
  sim::SimTime fabric_delay = sim::microseconds(10);
  QueueFactory queue;
};

struct LeafSpine {
  std::unique_ptr<Topology> topology;
  std::vector<std::vector<Host*>> racks;  ///< racks[r][h]
  std::vector<Switch*> tors;
  std::vector<Switch*> spines;
};

LeafSpine make_leaf_spine(sim::Simulator& simulator,
                          const LeafSpineConfig& cfg);

}  // namespace mltcp::net
