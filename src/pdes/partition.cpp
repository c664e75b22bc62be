#include "pdes/partition.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>

namespace mltcp::pdes {

namespace {

/// Flat union-find with path halving; no rank (node counts are small and
/// deterministic merge order matters more than tree depth).
struct UnionFind {
  std::vector<std::uint32_t> parent;

  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0u);
  }

  std::uint32_t find(std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }

  /// Deterministic union: the smaller root wins, so group identity is a
  /// pure function of the constraint set, not of merge order.
  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (b < a) std::swap(a, b);
    parent[b] = a;
  }
};

}  // namespace

Partition partition_topology(const net::Topology& topo,
                             const PartitionOptions& options) {
  const std::size_t n_nodes = topo.hosts().size() + topo.switches().size();
  assert(options.shards >= 1);

  UnionFind uf(n_nodes);
  // Structural rule: a host fuses with the switch its uplink feeds, so the
  // host<->ToR links (the shortest propagation delays in the fabric) are
  // never cut and racks move as units.
  for (const net::Host* host : topo.hosts()) {
    if (host->uplink() != nullptr) {
      uf.unite(static_cast<std::uint32_t>(host->id()),
               static_cast<std::uint32_t>(host->uplink()->destination()->id()));
    }
  }
  for (const auto& set : options.co_locate) {
    for (std::size_t i = 1; i < set.size(); ++i) {
      uf.unite(static_cast<std::uint32_t>(set[0]->id()),
               static_cast<std::uint32_t>(set[i]->id()));
    }
  }

  // Dense group ordinals by first appearance over NodeId order (construction
  // order — deterministic across runs and machines).
  std::vector<std::int32_t> group_of(n_nodes, -1);
  struct Group {
    std::uint32_t first_node = 0;
    std::int64_t weight = 0;
  };
  std::vector<Group> groups;
  for (std::size_t id = 0; id < n_nodes; ++id) {
    const std::uint32_t root = uf.find(static_cast<std::uint32_t>(id));
    if (group_of[root] < 0) {
      group_of[root] = static_cast<std::int32_t>(groups.size());
      groups.push_back(Group{static_cast<std::uint32_t>(id), 0});
    }
    group_of[id] = group_of[root];
  }
  // Weight: hosts dominate event load (transport endpoints), switches carry
  // forwarding work; 2:1 balances a rack group against spine-only groups.
  for (const net::Host* h : topo.hosts()) {
    groups[static_cast<std::size_t>(group_of[h->id()])].weight += 2;
  }
  for (const net::Switch* s : topo.switches()) {
    groups[static_cast<std::size_t>(group_of[s->id()])].weight += 1;
  }

  Partition out;
  out.shards = std::max(
      1, std::min(options.shards, static_cast<int>(groups.size())));
  out.shard_of_node.assign(n_nodes, 0);
  if (out.shards > 1) {
    // Greedy balance: heaviest group first onto the lightest shard, every
    // tie broken by construction order — fully deterministic.
    std::vector<std::size_t> order(groups.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return groups[a].weight > groups[b].weight;
                     });
    std::vector<std::int64_t> load(static_cast<std::size_t>(out.shards), 0);
    std::vector<int> shard_of_group(groups.size(), 0);
    for (const std::size_t g : order) {
      int lightest = 0;
      for (int s = 1; s < out.shards; ++s) {
        if (load[static_cast<std::size_t>(s)] <
            load[static_cast<std::size_t>(lightest)]) {
          lightest = s;
        }
      }
      shard_of_group[g] = lightest;
      load[static_cast<std::size_t>(lightest)] += groups[g].weight;
    }
    for (std::size_t id = 0; id < n_nodes; ++id) {
      out.shard_of_node[id] =
          shard_of_group[static_cast<std::size_t>(group_of[id])];
    }
  }

  // Cut set: a link belongs to its source node's shard; it is cut when the
  // destination lives elsewhere. Walk the adjacency in NodeId-then-connect
  // order so the cut list (and with it every cross-shard channel's rank in
  // the deterministic merge) is reproducible.
  const auto& adjacency = topo.adjacency();
  for (std::size_t src = 0; src < adjacency.size(); ++src) {
    const int src_shard = out.shard_of_node[src];
    for (const auto& [dst, link] : adjacency[src]) {
      const int dst_shard = out.shard_of_node[static_cast<std::size_t>(dst)];
      if (src_shard == dst_shard) continue;
      if (link->propagation_delay() <= 0) {
        throw std::invalid_argument(
            "partition_topology: cut link " + link->name() + " has delay " +
            std::to_string(link->propagation_delay()) +
            " ns; a cut link needs positive propagation delay (lookahead)");
      }
      out.cut_links.push_back(CutLink{link, src_shard, dst_shard});
      out.min_lookahead =
          std::min(out.min_lookahead, link->propagation_delay());
    }
  }
  return out;
}

std::vector<std::vector<const net::Node*>> co_locate_senders(
    const std::vector<workload::JobSpec>& specs) {
  std::vector<std::vector<const net::Node*>> sets;
  sets.reserve(specs.size());
  for (const workload::JobSpec& spec : specs) {
    std::vector<const net::Node*> senders;
    senders.reserve(spec.flows.size());
    for (const workload::FlowSpec& f : spec.flows) {
      if (f.src != nullptr) senders.push_back(f.src);
    }
    if (!senders.empty()) sets.push_back(std::move(senders));
  }
  return sets;
}

void start_all_sharded(workload::Cluster& cluster,
                       const std::vector<workload::JobSpec>& specs,
                       sim::Simulator& simulator, const Partition& partition) {
  if (specs.size() != cluster.job_count()) {
    throw std::invalid_argument(
        "start_all_sharded: " + std::to_string(specs.size()) +
        " spec(s) for " + std::to_string(cluster.job_count()) +
        " job(s); specs must list the cluster's jobs in add order");
  }
  for (std::size_t i = 0; i < cluster.job_count(); ++i) {
    int shard = 0;
    if (!specs[i].flows.empty() && specs[i].flows.front().src != nullptr) {
      shard = partition.shard_of(specs[i].flows.front().src);
    }
    sim::Simulator::ShardGuard guard(simulator, shard);
    cluster.job(i)->start();
  }
}

}  // namespace mltcp::pdes
