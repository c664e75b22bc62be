#include "net/topology.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace mltcp::net {

Host* Topology::add_host(const std::string& name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  auto host = std::make_unique<Host>(id, name, demux_);
  Host* ptr = host.get();
  nodes_.push_back(std::move(host));
  hosts_.push_back(ptr);
  adjacency_.emplace_back();
  is_switch_.push_back(0);
  return ptr;
}

Switch* Topology::add_switch(const std::string& name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  auto sw = std::make_unique<Switch>(id, name);
  Switch* ptr = sw.get();
  ptr->set_trace_context(&sim_);
  nodes_.push_back(std::move(sw));
  switches_.push_back(ptr);
  adjacency_.emplace_back();
  is_switch_.push_back(1);
  return ptr;
}

void Topology::connect(Node& a, Node& b, double rate_bps, sim::SimTime delay,
                       const QueueFactory& queue_factory) {
  assert(queue_factory != nullptr);
  auto make_link = [&](Node& from, Node& to) {
    auto link = std::make_unique<Link>(
        sim_, from.name() + "->" + to.name(), rate_bps, delay, queue_factory(),
        &to);
    Link* ptr = link.get();
    links_.push_back(std::move(link));
    by_endpoints_[{from.id(), to.id()}] = ptr;
    adjacency_[static_cast<std::size_t>(from.id())].emplace_back(to.id(), ptr);
    if (auto* host = dynamic_cast<Host*>(&from)) host->set_uplink(ptr);
    return ptr;
  };
  make_link(a, b);
  make_link(b, a);
}

void Topology::build_routes() {
  const auto t0 = std::chrono::steady_clock::now();
  route_stats_ = RouteBuildStats{};
  for (const auto& adj : adjacency_) {
    route_stats_.directed_edges += static_cast<std::int64_t>(adj.size());
  }

  const std::size_t n = nodes_.size();
  for (Switch* sw : switches_) sw->clear_routes(n);

  std::vector<std::int32_t> dist(n);
  std::vector<NodeId> frontier;
  frontier.reserve(n);
  std::vector<Link*> ecmp;
  for (const Host* dst_host : hosts_) {
    rebuild_destination(dst_host->id(), dist, frontier, ecmp);
    ++route_stats_.destinations;
  }

  route_stats_.build_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  // O(V·E) guard: each destination touches every directed edge at most
  // twice (once discovering distances, once collecting ECMP candidates).
  assert(route_stats_.edges_scanned <=
         2 * route_stats_.directed_edges *
             std::max<std::int64_t>(route_stats_.destinations, 1));
  notify_changed();
}

void Topology::rebuild_destination(NodeId d, std::vector<std::int32_t>& dist,
                                   std::vector<NodeId>& frontier,
                                   std::vector<Link*>& ecmp) {
  // One BFS over the reverse graph (links are paired, so adjacency doubles
  // as reverse adjacency). dist[v] is v's hop count to the destination; a
  // switch's equal-cost next hops are its neighbours one hop closer. Hosts
  // do not forward transit traffic, so only the destination itself and
  // switches are expanded. Down links do not carry distance; links go down
  // in pairs (set_link_pair_state), so the member checked here has the same
  // state as the one the traffic would use.
  dist.assign(nodes_.size(), -1);
  frontier.clear();
  dist[static_cast<std::size_t>(d)] = 0;
  frontier.push_back(d);
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const auto u = static_cast<std::size_t>(frontier[head]);
    if (frontier[head] != d && !is_switch_[u]) continue;
    for (const auto& [v, link] : adjacency_[u]) {
      ++route_stats_.edges_scanned;
      if (!link->up()) continue;
      const auto vi = static_cast<std::size_t>(v);
      if (dist[vi] < 0) {
        dist[vi] = dist[u] + 1;
        frontier.push_back(v);
      }
    }
  }
  for (Switch* sw : switches_) {
    const auto s = static_cast<std::size_t>(sw->id());
    if (dist[s] <= 0) continue;
    ecmp.clear();
    for (const auto& [v, link] : adjacency_[s]) {
      ++route_stats_.edges_scanned;
      const auto vi = static_cast<std::size_t>(v);
      // A valid next hop is one hop closer, reachable over an up link and
      // able to deliver: the destination itself or a forwarding switch.
      // Adjacency (connect) order fixes the candidate order — seed-stable
      // ECMP.
      if (dist[vi] == dist[s] - 1 && link->up() &&
          (v == d || is_switch_[vi])) {
        ecmp.push_back(link);
      }
    }
    if (!ecmp.empty()) sw->set_routes(d, ecmp);
  }
}

void Topology::set_link_pair_state(Node& a, Node& b, bool up) {
  Link* fwd = link_between(a, b);
  Link* rev = link_between(b, a);
  assert(fwd != nullptr && rev != nullptr && "nodes are not adjacent");
  if (fwd->up() == up && rev->up() == up) return;
  fwd->set_up(up);
  rev->set_up(up);
  build_routes();
}

Link* Topology::link_between(const Node& a, const Node& b) const {
  auto it = by_endpoints_.find({a.id(), b.id()});
  return it == by_endpoints_.end() ? nullptr : it->second;
}

Node* Topology::find_node(const std::string& name) const {
  for (const auto& n : nodes_) {
    if (n->name() == name) return n.get();
  }
  return nullptr;
}

Node* Topology::node(NodeId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= nodes_.size()) return nullptr;
  return nodes_[static_cast<std::size_t>(id)].get();
}

namespace {
QueueFactory default_queue_or(const QueueFactory& given,
                              std::int64_t capacity_bytes) {
  return given != nullptr ? given : make_droptail_factory(capacity_bytes);
}
}  // namespace

Dumbbell make_dumbbell(sim::Simulator& simulator, const DumbbellConfig& cfg) {
  assert(cfg.hosts_per_side > 0);
  Dumbbell d;
  d.topology = std::make_unique<Topology>(simulator);
  Topology& topo = *d.topology;

  d.left_switch = topo.add_switch("swL");
  d.right_switch = topo.add_switch("swR");

  const QueueFactory host_q = default_queue_or(cfg.host_queue, 4 * 1024 * 1024);
  // Default bottleneck buffer: ~1 BDP-ish region scaled by rate; a deep
  // enough buffer for Reno sawtooth while still forcing loss under overload.
  const auto bneck_cap = static_cast<std::int64_t>(
      cfg.bottleneck_rate_bps / 8.0 * sim::to_seconds(sim::milliseconds(2)));
  const QueueFactory bneck_q = default_queue_or(
      cfg.bottleneck_queue, bneck_cap > 64 * 1500 ? bneck_cap : 64 * 1500);

  topo.connect(*d.left_switch, *d.right_switch, cfg.bottleneck_rate_bps,
               cfg.bottleneck_delay, bneck_q);

  for (int i = 0; i < cfg.hosts_per_side; ++i) {
    Host* l = topo.add_host("hL" + std::to_string(i));
    Host* r = topo.add_host("hR" + std::to_string(i));
    topo.connect(*l, *d.left_switch, cfg.host_rate_bps, cfg.host_delay,
                 host_q);
    topo.connect(*r, *d.right_switch, cfg.host_rate_bps, cfg.host_delay,
                 host_q);
    d.left.push_back(l);
    d.right.push_back(r);
  }

  topo.build_routes();
  d.bottleneck = topo.link_between(*d.left_switch, *d.right_switch);
  d.bottleneck_reverse = topo.link_between(*d.right_switch, *d.left_switch);
  return d;
}

Star make_star(sim::Simulator& simulator, const StarConfig& cfg) {
  assert(cfg.n_hosts > 0);
  Star s;
  s.topology = std::make_unique<Topology>(simulator);
  Topology& topo = *s.topology;
  s.hub = topo.add_switch("hub");
  const QueueFactory q = default_queue_or(cfg.queue, 512 * 1500);
  for (int i = 0; i < cfg.n_hosts; ++i) {
    Host* h = topo.add_host("h" + std::to_string(i));
    topo.connect(*h, *s.hub, cfg.rate_bps, cfg.delay, q);
    s.hosts.push_back(h);
  }
  topo.build_routes();
  return s;
}

LeafSpine make_leaf_spine(sim::Simulator& simulator,
                          const LeafSpineConfig& cfg) {
  assert(cfg.racks > 0 && cfg.hosts_per_rack > 0 && cfg.spines > 0);
  LeafSpine ls;
  ls.topology = std::make_unique<Topology>(simulator);
  Topology& topo = *ls.topology;
  const QueueFactory q = default_queue_or(cfg.queue, 512 * 1500);

  for (int s = 0; s < cfg.spines; ++s) {
    ls.spines.push_back(topo.add_switch("spine" + std::to_string(s)));
  }
  for (int r = 0; r < cfg.racks; ++r) {
    Switch* tor = topo.add_switch("tor" + std::to_string(r));
    ls.tors.push_back(tor);
    ls.racks.emplace_back();
    for (int h = 0; h < cfg.hosts_per_rack; ++h) {
      Host* host =
          topo.add_host("h" + std::to_string(r) + "_" + std::to_string(h));
      topo.connect(*host, *tor, cfg.host_rate_bps, cfg.host_delay, q);
      ls.racks.back().push_back(host);
    }
    for (Switch* spine : ls.spines) {
      topo.connect(*tor, *spine, cfg.fabric_rate_bps, cfg.fabric_delay, q);
    }
  }
  topo.build_routes();
  return ls;
}

}  // namespace mltcp::net
