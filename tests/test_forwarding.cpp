// Forwarding-path data structures: the dense route/handler tables, the
// power-of-two packet ring, ECMP determinism and the pFabric min-max heap.
// These are the structures the cluster-scale benchmark leans on (see
// DESIGN.md "Forwarding path & scale"), so each invariant the hot path
// assumes — dense ids, generation-checked handles, exact byte accounting,
// pure-function hashing, multiset-identical pFabric order — is pinned here.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "net/queue.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "tcp/reno.hpp"
#include "workload/cluster.hpp"

namespace mltcp::net {
namespace {

Packet make_pkt(NodeId dst, FlowId flow, std::int32_t size = 1500) {
  Packet p;
  p.dst = dst;
  p.flow = flow;
  p.size_bytes = size;
  return p;
}

// ------------------------------------------------- dense route tables

// Hosts and switches share one dense id space in creation order, so a
// switch's flat route table has entries for ids that are not hosts (and
// receives can carry ids beyond the table). Those gaps must read as
// "no route", never as stale pointers or out-of-bounds access.
TEST(Forwarding, DenseRouteTablesAcrossNodeIdGaps) {
  sim::Simulator sim;
  Topology topo(sim);
  // Interleave node kinds so host ids are non-contiguous: 0, 2, 4.
  Host* h0 = topo.add_host("h0");
  Switch* s0 = topo.add_switch("s0");
  Host* h1 = topo.add_host("h1");
  Switch* s1 = topo.add_switch("s1");
  Host* h2 = topo.add_host("h2");
  ASSERT_EQ(h0->id(), 0);
  ASSERT_EQ(h1->id(), 2);
  ASSERT_EQ(h2->id(), 4);

  const QueueFactory q = make_droptail_factory(64 * 1500);
  topo.connect(*h0, *s0, 1e9, sim::microseconds(1), q);
  topo.connect(*s0, *s1, 1e9, sim::microseconds(1), q);
  topo.connect(*s1, *h1, 1e9, sim::microseconds(1), q);
  topo.connect(*s1, *h2, 1e9, sim::microseconds(1), q);
  topo.build_routes();

  // Host destinations resolve through the gaps.
  EXPECT_EQ(s0->route(h0->id()), topo.link_between(*s0, *h0));
  EXPECT_EQ(s0->route(h1->id()), topo.link_between(*s0, *s1));
  EXPECT_EQ(s0->route(h2->id()), topo.link_between(*s0, *s1));
  EXPECT_EQ(s0->route_width(h1->id()), 1u);

  // Switch ids sit in the table but are not routed destinations.
  EXPECT_EQ(s0->route(s1->id()), nullptr);
  EXPECT_EQ(s0->route_width(s1->id()), 0u);

  // Ids beyond the table (and the invalid sentinel) are clean misses.
  EXPECT_EQ(s0->route(999), nullptr);
  EXPECT_EQ(s0->route_for_flow(999, 7), nullptr);
  EXPECT_EQ(s0->route_width(999), 0u);
  EXPECT_EQ(s0->route(kInvalidNode), nullptr);

  // receive() counts those as routeless drops and keeps forwarding.
  s0->receive(make_pkt(s1->id(), 1));
  s0->receive(make_pkt(999, 1));
  s0->receive(make_pkt(kInvalidNode, 1));
  EXPECT_EQ(s0->routeless_drops(), 3);
  EXPECT_EQ(s0->forwarded_packets(), 0);
  s0->receive(make_pkt(h1->id(), 1));
  EXPECT_EQ(s0->forwarded_packets(), 1);
  EXPECT_EQ(s0->routeless_drops(), 3);
}

// ----------------------------------------------- handler generations

TEST(Forwarding, HandlerTableHandlesSparseFlowIds) {
  FlowDemux demux;
  Host h(0, "h", demux);
  int hits = 0;
  // Registering flow 5 first leaves slots 0..4 empty, not undefined.
  h.register_flow(5, [&](const Packet&) { ++hits; });
  h.receive(make_pkt(0, 2));
  EXPECT_EQ(h.unclaimed_packets(), 1);
  h.receive(make_pkt(0, 5));
  EXPECT_EQ(h.delivered_packets(), 1);
  EXPECT_EQ(hits, 1);
  // Beyond the table and the invalid sentinel: unclaimed, no crash.
  h.receive(make_pkt(0, 1000));
  h.receive(make_pkt(0, kInvalidFlow));
  EXPECT_EQ(h.unclaimed_packets(), 3);
}

TEST(Forwarding, StaleHandleCannotUnregisterReusedFlowId) {
  FlowDemux demux;
  Host h(0, "h", demux);
  std::string hit;
  const Host::FlowHandle a =
      h.register_flow(3, [&](const Packet&) { hit = "a"; });
  h.unregister_flow(a);
  h.receive(make_pkt(0, 3));
  EXPECT_EQ(h.unclaimed_packets(), 1);

  // The id is reused; the old handle must now be inert.
  const Host::FlowHandle b =
      h.register_flow(3, [&](const Packet&) { hit = "b"; });
  h.unregister_flow(a);
  h.receive(make_pkt(0, 3));
  EXPECT_EQ(hit, "b");
  EXPECT_EQ(h.delivered_packets(), 1);

  // Registering over a live handler invalidates its handle too.
  h.register_flow(3, [&](const Packet&) { hit = "c"; });
  h.unregister_flow(b);
  h.receive(make_pkt(0, 3));
  EXPECT_EQ(hit, "c");

  // Unconditional unregister always tears down; default handles are inert.
  h.unregister_flow(3);
  h.unregister_flow(Host::FlowHandle{});
  h.receive(make_pkt(0, 3));
  EXPECT_EQ(h.unclaimed_packets(), 2);
}

// The generation rule holds across hosts too: once a's endpoint of flow 9
// is freed and another host takes it, a's next registration lands in the
// slot's other endpoint, and a handle from a's first registration must not
// match it.
TEST(Forwarding, StaleHandleCannotUnregisterAfterTheIdMovesBetweenHosts) {
  sim::Simulator sim;
  Topology topo(sim);
  Host* a = topo.add_host("a");
  Host* c = topo.add_host("c");
  int hits = 0;
  const Host::FlowHandle first =
      a->register_flow(9, [&](const Packet&) { ++hits; });
  a->unregister_flow(9);
  c->register_flow(9, [](const Packet&) {});
  const Host::FlowHandle second =
      a->register_flow(9, [&](const Packet&) { ++hits; });
  EXPECT_NE(first.gen, second.gen);
  a->unregister_flow(first);
  a->receive(make_pkt(a->id(), 9));
  EXPECT_EQ(hits, 1);
  a->unregister_flow(second);
  a->receive(make_pkt(a->id(), 9));
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(a->unclaimed_packets(), 1);
}

TEST(Forwarding, RegisterRejectsNegativeIdsEmptyHandlersAndAThirdEndpoint) {
  sim::Simulator sim;
  Topology topo(sim);
  Host* a = topo.add_host("a");
  Host* b = topo.add_host("b");
  Host* c = topo.add_host("c");
  // The error register_flow throws, or "" when it registers.
  const auto error = [](Host* h, FlowId flow, Host::PacketHandler fn) {
    try {
      h->register_flow(flow, std::move(fn));
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const Host::PacketHandler noop = [](const Packet&) {};
  EXPECT_EQ(error(a, kInvalidFlow, noop), "host a: flow -1 is negative");
  EXPECT_EQ(error(a, -7, noop), "host a: flow -7 is negative");
  EXPECT_EQ(error(a, 4, nullptr), "host a: flow 4 has an empty handler");

  ASSERT_EQ(error(a, 4, noop), "");
  ASSERT_EQ(error(b, 4, noop), "");
  EXPECT_EQ(error(c, 4, noop),
            "host c: flow 4 already has two live endpoints, on hosts a and "
            "b");
  // A live endpoint may re-register, and a freed one takes a new host.
  EXPECT_EQ(error(b, 4, noop), "");
  a->unregister_flow(4);
  EXPECT_EQ(error(c, 4, noop), "");
}

// A handler that opens connections while it runs: it registers enough
// flows, on its own host and on another, to grow the shared table past a
// chunk, then reads its captures. Growth must not move the running
// handler (a table that reallocates frees it under the call), and the new
// flows must deliver.
TEST(Forwarding, HandlerOpeningFlowsWhileItRunsKeepsItsCaptures) {
  sim::Simulator sim;
  Topology topo(sim);
  Host* a = topo.add_host("a");
  Host* b = topo.add_host("b");
  topo.connect(*a, *b, 1e9, sim::microseconds(1),
               make_droptail_factory(64 * 1500));

  constexpr FlowId kLast = 1 + 2 * static_cast<FlowId>(FlowDemux::kChunkSize);
  struct State {
    Host* a;
    Host* b;
    int opener_runs = 0;
    std::vector<FlowId> at_a, at_b;
  } st{a, b, 0, {}, {}};
  // One reference capture: it sits inside the handler object itself.
  b->register_flow(1, [&st](const Packet&) {
    for (FlowId f = 2; f <= kLast; ++f) {
      st.b->register_flow(f, [&st](const Packet& p) {
        st.at_b.push_back(p.flow);
      });
      st.a->register_flow(f, [&st](const Packet& p) {
        st.at_a.push_back(p.flow);
      });
    }
    ++st.opener_runs;
  });
  a->send(make_pkt(b->id(), 1));
  sim.run();
  ASSERT_EQ(st.opener_runs, 1);
  EXPECT_GT(topo.flow_demux().slot_capacity(), FlowDemux::kChunkSize);

  a->send(make_pkt(b->id(), 2));
  a->send(make_pkt(b->id(), kLast));
  b->send(make_pkt(a->id(), kLast));
  sim.run();
  EXPECT_EQ(st.at_b, (std::vector<FlowId>{2, kLast}));
  EXPECT_EQ(st.at_a, (std::vector<FlowId>{kLast}));
  EXPECT_EQ(a->unclaimed_packets() + b->unclaimed_packets(), 0);
}

// The demux is sized by connections, not by hosts x connections: N
// connections between varied pairs of the 256-host leaf-spine hold at most
// N + 1 slots (ids start at 1) rounded up to a chunk, and every one of them
// delivers.
TEST(Forwarding, DemuxFootprintTracksConnectionsNotHosts) {
  sim::Simulator sim;
  LeafSpineConfig cfg;
  cfg.racks = 16;
  cfg.hosts_per_rack = 16;
  cfg.spines = 4;
  cfg.queue = make_droptail_factory(256 * 1500);
  LeafSpine ls = make_leaf_spine(sim, cfg);
  const auto& hosts = ls.topology->hosts();
  ASSERT_EQ(hosts.size(), 256u);

  workload::Cluster cluster(sim);
  constexpr std::size_t kConnections = 1000;
  int completed = 0;
  for (std::size_t i = 0; i < kConnections; ++i) {
    workload::FlowSpec fs;
    const std::size_t src = (i * 7) % hosts.size();
    fs.src = hosts[src];
    fs.dst = hosts[(src + 1 + i % (hosts.size() - 1)) % hosts.size()];
    cluster
        .add_channel(fs, [] { return std::make_unique<tcp::RenoCC>(); })
        ->send_message(3000, [&](sim::SimTime) { ++completed; });
  }
  const std::size_t slots = ls.topology->flow_demux().slot_capacity();
  EXPECT_GE(slots, kConnections + 1);
  EXPECT_LE(slots, kConnections + 1 + FlowDemux::kChunkSize);

  sim.run_until(sim::milliseconds(50));
  EXPECT_EQ(completed, static_cast<int>(kConnections));
  for (const Host* h : hosts) EXPECT_EQ(h->unclaimed_packets(), 0);
}

// ------------------------------------------------------- packet ring

TEST(Forwarding, PacketRingPreservesFifoAcrossWraparound) {
  PacketRing ring;
  // Interleaved push/pop drives the monotonic counters through many
  // multiples of the capacity; order must survive every wrap.
  std::int64_t pushed = 0, popped = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 5; ++i) {
      Packet p;
      p.seq = pushed++;
      ring.push_back(p);
    }
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(ring.front().seq, popped++);
      ring.pop_front();
    }
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 8u);  // 5 in flight fit the first allocation.

  // Growth at a capacity boundary with a non-zero head offset: the
  // relinearization must keep FIFO order.
  for (int i = 0; i < 3; ++i) {
    Packet p;
    p.seq = pushed++;
    ring.push_back(p);
  }
  ASSERT_EQ(ring.front().seq, popped++);
  ring.pop_front();
  while (ring.size() < ring.capacity()) {
    Packet p;
    p.seq = pushed++;
    ring.push_back(p);
  }
  Packet p;
  p.seq = pushed++;
  ring.push_back(p);  // One past capacity: grows mid-wrap.
  EXPECT_EQ(ring.capacity(), 16u);
  EXPECT_EQ(ring.capacity() & (ring.capacity() - 1), 0u);
  while (!ring.empty()) {
    ASSERT_EQ(ring.front().seq, popped++);
    ring.pop_front();
  }
  EXPECT_EQ(popped, pushed);
}

TEST(Forwarding, DropTailByteAccountingExactAcrossWrap) {
  FifoQueue q(10 * 150);
  std::int64_t expected = 0;
  std::uint64_t rng = 7;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  // Enough churn that the backing ring wraps repeatedly; the byte count
  // must track admissions and departures exactly, including at the
  // capacity boundary where arrivals bounce.
  for (int i = 0; i < 2000; ++i) {
    const std::int32_t size = 40 + static_cast<std::int32_t>(next() % 111);
    if (next() % 3 != 0) {
      if (q.enqueue(make_pkt(0, 1, size), 0)) {
        expected += size;
      } else {
        EXPECT_GT(expected + size, 10 * 150);  // Only full queues drop.
      }
    } else if (auto pkt = q.dequeue(0)) {
      expected -= pkt->size_bytes;
    }
    ASSERT_EQ(q.backlog_bytes(), expected);
  }
  while (auto pkt = q.dequeue(0)) expected -= pkt->size_bytes;
  EXPECT_EQ(expected, 0);
  EXPECT_EQ(q.backlog_bytes(), 0);
  EXPECT_GT(q.stats().dropped_packets, 0);
}

// ------------------------------------------------------------- ECMP

/// Maps the egress `tor` picks for (dst, flow) to a spine index.
int spine_of(const LeafSpine& ls, Switch* tor, NodeId dst, FlowId flow) {
  Link* egress = tor->route_for_flow(dst, flow);
  for (std::size_t s = 0; s < ls.spines.size(); ++s) {
    if (egress == ls.topology->link_between(*tor, *ls.spines[s])) {
      return static_cast<int>(s);
    }
  }
  return -1;
}

TEST(Forwarding, EcmpIsDeterministicAcrossBuildsAndThreadEnv) {
  // The spine choice is a pure function of the flow id and the candidate
  // order fixed by connect() order — so two independent builds agree, and
  // MLTCP_THREADS (which parallelises the campaign runner, not the
  // forwarding path) cannot influence it.
  const auto picks_under = [](const char* threads) {
    setenv("MLTCP_THREADS", threads, 1);
    sim::Simulator sim;
    LeafSpineConfig cfg;
    cfg.racks = 4;
    cfg.hosts_per_rack = 2;
    cfg.spines = 4;
    LeafSpine ls = make_leaf_spine(sim, cfg);
    Switch* tor = ls.tors[0];
    const NodeId dst = ls.racks[2][1]->id();
    EXPECT_EQ(tor->route_width(dst), 4u);
    std::vector<int> picks;
    for (FlowId f = 0; f < 512; ++f) {
      const int s = spine_of(ls, tor, dst, f);
      EXPECT_GE(s, 0);
      EXPECT_EQ(s, spine_of(ls, tor, dst, f));  // Stable on re-query.
      picks.push_back(s);
    }
    return picks;
  };

  char* old = getenv("MLTCP_THREADS");
  const std::string saved = old != nullptr ? old : "";
  const std::vector<int> serial = picks_under("1");
  const std::vector<int> parallel = picks_under("4");
  if (old != nullptr) {
    setenv("MLTCP_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("MLTCP_THREADS");
  }
  EXPECT_EQ(serial, parallel);

  // The hash spreads consecutive flow ids across the whole set: every
  // spine carries a meaningful share of the 512 flows.
  std::vector<int> per_spine(4, 0);
  for (const int s : serial) ++per_spine[s];
  for (const int n : per_spine) EXPECT_GT(n, 512 / 16);
}

TEST(Forwarding, SameRackTrafficNeverClimbsToSpines) {
  sim::Simulator sim;
  LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.spines = 2;
  LeafSpine ls = make_leaf_spine(sim, cfg);
  Switch* tor = ls.tors[0];
  const NodeId dst = ls.racks[0][3]->id();
  EXPECT_EQ(tor->route_width(dst), 1u);
  for (FlowId f = 0; f < 32; ++f) {
    EXPECT_EQ(tor->route_for_flow(dst, f),
              ls.topology->link_between(*tor, *ls.racks[0][3]));
  }
}

// --------------------------------------------------- route build cost

TEST(Forwarding, BuildRoutesIsOneBfsPerDestination) {
  sim::Simulator sim;
  LeafSpineConfig cfg;
  cfg.racks = 8;
  cfg.hosts_per_rack = 4;
  cfg.spines = 2;
  LeafSpine ls = make_leaf_spine(sim, cfg);
  const RouteBuildStats& st = ls.topology->route_build_stats();
  const std::int64_t hosts = 8 * 4;
  EXPECT_EQ(st.destinations, hosts);
  // connect() makes two directed links: one per host, racks*spines fabric.
  EXPECT_EQ(st.directed_edges, 2 * (hosts + 8 * 2));
  EXPECT_GT(st.edges_scanned, 0);
  // Per destination the builder touches each directed edge at most twice —
  // once discovering distances, once collecting ECMP candidates — so the
  // whole pass is O(hosts * edges), never per (source, destination) pair.
  EXPECT_LE(st.edges_scanned, 2 * st.destinations * st.directed_edges);
}

// --------------------------------------- pFabric differential testing

/// The original multiset-backed pFabric implementation, kept as the
/// executable specification: the sorted queue must reproduce its admission
/// decisions, evictions and dequeue order exactly (same total order on
/// (priority, arrival_seq), same eviction rule).
class PfabricReference {
 public:
  explicit PfabricReference(std::int64_t capacity) : capacity_(capacity) {}

  bool enqueue(const Packet& pkt) {
    while (backlog_ + pkt.size_bytes > capacity_ && !q_.empty()) {
      auto worst = std::prev(q_.end());
      if (worst->pkt.priority <= pkt.priority) return false;
      backlog_ -= worst->pkt.size_bytes;
      q_.erase(worst);
    }
    if (backlog_ + pkt.size_bytes > capacity_) return false;
    q_.insert(Entry{pkt.priority, arrivals_++, pkt});
    backlog_ += pkt.size_bytes;
    return true;
  }

  std::optional<Packet> dequeue() {
    if (q_.empty()) return std::nullopt;
    const Packet pkt = q_.begin()->pkt;
    backlog_ -= pkt.size_bytes;
    q_.erase(q_.begin());
    return pkt;
  }

  std::optional<Packet> enqueue_dequeue(const Packet& pkt) {
    if (!q_.empty()) {
      if (!enqueue(pkt)) return std::nullopt;
      return dequeue();
    }
    if (pkt.size_bytes > capacity_) return std::nullopt;
    ++arrivals_;
    return pkt;
  }

  std::int64_t backlog_bytes() const { return backlog_; }

 private:
  struct Entry {
    std::int64_t priority;
    std::uint64_t seq;
    Packet pkt;
    bool operator<(const Entry& o) const {
      if (priority != o.priority) return priority < o.priority;
      return seq < o.seq;
    }
  };
  std::int64_t capacity_;
  std::int64_t backlog_ = 0;
  std::uint64_t arrivals_ = 0;
  std::multiset<Entry> q_;
};

void expect_same_packet(const std::optional<Packet>& got,
                        const std::optional<Packet>& want, int step) {
  ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
  if (!got.has_value()) return;
  EXPECT_EQ(got->flow, want->flow) << "step " << step;
  EXPECT_EQ(got->seq, want->seq) << "step " << step;
  EXPECT_EQ(got->priority, want->priority) << "step " << step;
  EXPECT_EQ(got->size_bytes, want->size_bytes) << "step " << step;
}

TEST(Forwarding, PfabricQueueMatchesMultisetReferenceOnSeededTrace) {
  // Small capacity so the trace spends much of its time at the eviction
  // boundary, and a narrow priority range so the arrival-seq tiebreak is
  // exercised constantly.
  const std::int64_t cap = 8 * 1500;
  PfabricPriorityQueue heap(cap);
  PfabricReference ref(cap);

  std::uint64_t rng = 0x2545F4914F6CDD1DULL;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t op = next() % 10;
    if (op < 5) {  // enqueue
      Packet p = make_pkt(0, static_cast<FlowId>(i % 97),
                          static_cast<std::int32_t>(200 + next() % 1301));
      p.seq = i;
      p.priority = static_cast<std::int64_t>(next() % 5);
      EXPECT_EQ(heap.enqueue(p, 0), ref.enqueue(p)) << "step " << i;
    } else if (op < 8) {  // dequeue
      expect_same_packet(heap.dequeue(0), ref.dequeue(), i);
    } else {  // enqueue_dequeue (idle-transmitter path)
      Packet p = make_pkt(0, static_cast<FlowId>(i % 97),
                          static_cast<std::int32_t>(200 + next() % 1301));
      p.seq = i;
      p.priority = static_cast<std::int64_t>(next() % 5);
      expect_same_packet(heap.enqueue_dequeue(p, 0), ref.enqueue_dequeue(p),
                         i);
    }
    ASSERT_EQ(heap.backlog_bytes(), ref.backlog_bytes()) << "step " << i;
    ASSERT_EQ(heap.empty(), ref.backlog_bytes() == 0) << "step " << i;
  }

  // Drain: the remaining contents must come out in the identical order.
  for (int step = 0; !heap.empty(); ++step) {
    expect_same_packet(heap.dequeue(0), ref.dequeue(), 100000 + step);
  }
  EXPECT_FALSE(ref.dequeue().has_value());
}

}  // namespace
}  // namespace mltcp::net
