#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "sim/time.hpp"
#include "workload/cluster.hpp"

namespace mltcp::pdes {

/// How to split one topology across shards.
struct PartitionOptions {
  /// Requested shard count; the effective count is min(shards, groups) —
  /// a topology never splits finer than its atomic node groups.
  int shards = 1;
  /// Node sets that must land in the same shard, on top of the structural
  /// rule. The workload layer uses this to pin all *sender* hosts of one
  /// job together, which keeps the job's control state machine (chunk
  /// fan-out, completion counting, compute scheduling) shard-local: flow
  /// completion fires sender-side, so every Job callback then executes on
  /// exactly one shard.
  std::vector<std::vector<const net::Node*>> co_locate;
};

/// A directed link whose source and destination nodes live in different
/// shards. Its propagation delay is the guaranteed lookahead across that
/// boundary: a delivery handed off when serialization starts arrives at
/// least `propagation_delay` later, so the source shard can always promise
/// the destination shard that much simulated-time slack.
struct CutLink {
  net::Link* link = nullptr;
  int src_shard = 0;
  int dst_shard = 0;
};

/// Result of partitioning: a shard id per node plus the cut set.
struct Partition {
  int shards = 1;
  std::vector<int> shard_of_node;  ///< Indexed by dense NodeId.
  std::vector<CutLink> cut_links;  ///< In deterministic link-construction order.
  /// Smallest cut-link propagation delay — the binding lookahead. Infinity
  /// when nothing is cut (single shard).
  sim::SimTime min_lookahead = sim::kTimeInfinity;

  int shard_of(const net::Node* node) const {
    return shard_of_node[static_cast<std::size_t>(node->id())];
  }
};

/// Partitions `topo` along link-propagation boundaries.
///
/// Structural rule: a host is atomic with the switch its uplink feeds (its
/// ToR), so racks never split — every host<->ToR hop stays shard-internal
/// and only inter-switch (fabric) links can be cut, where propagation
/// delays are largest and the lookahead strongest. Remaining switches
/// (spines) form their own groups. co_locate constraints then merge groups,
/// and the merged groups are dealt greedily (heaviest first, deterministic
/// construction-order tiebreaks) onto the requested shards.
///
/// Every cut link must have strictly positive propagation delay — that is
/// what makes conservative synchronization deadlock-free; throws
/// std::invalid_argument naming the first cut link without it.
Partition partition_topology(const net::Topology& topo,
                             const PartitionOptions& options);

/// co_locate sets for a job mix: one set per JobSpec holding the *source*
/// hosts of its flows (see PartitionOptions::co_locate for why senders).
std::vector<std::vector<const net::Node*>> co_locate_senders(
    const std::vector<workload::JobSpec>& specs);

/// Serial-equivalent Cluster::start_all() for sharded runs: starts job i
/// with its kick-off event placed in the shard owning specs[i]'s first
/// sender host (co_locate_senders guarantees all of a job's senders share
/// it, and flow completion fires sender-side, so the whole job state
/// machine stays on that shard). `specs` must list the cluster's jobs in
/// add order; throws std::invalid_argument when the counts differ.
void start_all_sharded(workload::Cluster& cluster,
                       const std::vector<workload::JobSpec>& specs,
                       sim::Simulator& simulator, const Partition& partition);

}  // namespace mltcp::pdes
