// Engine microbenchmarks (google-benchmark): event-queue throughput, the
// packet forwarding path, aggressiveness-function evaluation and the
// Algorithm 1 tracker — the per-ACK costs that would sit on the kernel
// hot path in a real deployment.

#include <benchmark/benchmark.h>

#include "core/aggressiveness.hpp"
#include "core/iteration_tracker.hpp"
#include "core/mltcp.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "tcp/flow.hpp"

namespace {

using namespace mltcp;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < 1024; ++i) q.schedule(i * 7 % 997, [] {});
    while (!q.empty()) q.pop_and_run();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

// The closures the simulator actually schedules are not empty: every hop's
// delivery captures a net::Packet by value (see net/link.cpp). This is the
// shape where the engine's inline callback storage matters: a type-erased
// std::function would heap-allocate each one.
void BM_EventQueuePacketClosures(benchmark::State& state) {
  std::int64_t sink = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < 1024; ++i) {
      net::Packet pkt;
      pkt.seq = i;
      pkt.size_bytes = 1500;
      q.schedule(i * 7 % 997, [pkt, &sink] { sink += pkt.seq; });
    }
    while (!q.empty()) q.pop_and_run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueuePacketClosures);

// Steady state: a long-lived queue holding a packet-scale pending set, each
// event scheduling its successor — the pattern of an in-flight packet train.
// This is the regime the engine keeps allocation-free.
void BM_EventQueueSteadyState(benchmark::State& state) {
  sim::EventQueue q;
  std::int64_t sink = 0;
  sim::SimTime now = 0;
  for (int i = 0; i < 256; ++i) {
    net::Packet pkt;
    pkt.seq = i;
    q.schedule(1 + i * 37 % 509, [pkt, &sink] { sink += pkt.seq; });
  }
  for (auto _ : state) {
    now = q.pop_and_run();
    net::Packet pkt;
    pkt.seq = sink;
    q.schedule(now + 1 + sink * 37 % 509, [pkt, &sink] { sink += pkt.seq; });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteadyState);

// RTO-style churn: most scheduled events never fire — they are cancelled and
// replaced long before their deadline. Exercises id validation and removal
// from the middle of the heap.
void BM_EventQueueCancelChurn(benchmark::State& state) {
  sim::EventQueue q;
  sim::SimTime now = 0;
  for (auto _ : state) {
    const sim::EventId id = q.schedule(now + 1'000'000, [] {});
    q.cancel(id);
    q.schedule(now + 1, [] {});
    now = q.pop_and_run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCancelChurn);

// Timer rearm storm: the same deadline-replacement pattern as above but
// through the reusable sim::Timer the model arms, which keeps its callback
// in place and re-keys its queued entry.
void BM_TimerRearm(benchmark::State& state) {
  sim::Simulator s;
  sim::EventQueue& q = s.event_queue();
  std::int64_t fired = 0;
  sim::Timer rto(s, [&fired] { ++fired; });
  sim::SimTime now = 0;
  for (auto _ : state) {
    rto.arm_at(now + 1'000'000);  // pushed out, never fires
    q.schedule(now + 1, [] {});
    now = q.pop_and_run();
  }
  rto.cancel();
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerRearm);

void BM_AggressivenessLinear(benchmark::State& state) {
  core::LinearAggressiveness f;
  double r = 0.0;
  double acc = 0.0;
  for (auto _ : state) {
    acc += f(r);
    r += 1e-6;
    if (r > 1.0) r = 0.0;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_AggressivenessLinear);

void BM_IterationTrackerOnAck(benchmark::State& state) {
  core::TrackerConfig cfg;
  cfg.total_bytes = 10'000'000;
  cfg.comp_time = sim::milliseconds(100);
  core::IterationTracker tracker(cfg);
  sim::SimTime now = 1;
  for (auto _ : state) {
    tracker.on_ack(2, now);
    now += sim::microseconds(10);
  }
  benchmark::DoNotOptimize(tracker.bytes_ratio());
}
BENCHMARK(BM_IterationTrackerOnAck);

// pFabric steady state at a held backlog: every iteration admits one packet
// into a full queue (forcing the eviction rule) and dequeues the best one.
// The sorted vector's insert and dequeue are linear in the backlog; the
// deepest pFabric queue any program builds holds 36 packets, near the
// bottom of this range.
void BM_PfabricAdmissionDequeue(benchmark::State& state) {
  const std::int64_t depth = state.range(0);
  net::PfabricPriorityQueue q(depth * 1500);
  std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const auto make = [&next](std::int64_t i) {
    net::Packet p;
    p.seq = i;
    p.size_bytes = 1500;
    p.priority = static_cast<std::int64_t>(next() % 1024);
    return p;
  };
  std::int64_t i = 0;
  while (q.backlog_packets() < static_cast<std::size_t>(depth)) {
    q.enqueue(make(i++), 0);
  }
  std::int64_t sink = 0;
  for (auto _ : state) {
    q.enqueue(make(i++), 0);  // Full: admits by eviction or drops.
    if (auto pkt = q.dequeue(0)) sink += pkt->seq;
    q.enqueue(make(i++), 0);  // Refill so the backlog is held at `depth`.
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PfabricAdmissionDequeue)->RangeMultiplier(8)->Range(16, 8192);

// Route-table construction for a cluster-sized fabric: one BFS per
// destination host over the adjacency (O(hosts * edges); see
// Topology::route_build_stats()). Argument = racks at 16 hosts/rack,
// 4 spines — 256 racks routes a 4096-host fabric per iteration.
void BM_BuildRoutesLeafSpine(benchmark::State& state) {
  sim::Simulator sim;
  net::LeafSpineConfig cfg;
  cfg.racks = static_cast<int>(state.range(0));
  cfg.hosts_per_rack = 16;
  cfg.spines = 4;
  net::LeafSpine ls = net::make_leaf_spine(sim, cfg);
  for (auto _ : state) {
    ls.topology->build_routes();
    benchmark::DoNotOptimize(ls.tors[0]->route(ls.racks.back().back()->id()));
  }
  const auto& st = ls.topology->route_build_stats();
  state.SetItemsProcessed(state.iterations() * st.destinations);
  state.counters["edges_scanned"] = static_cast<double>(st.edges_scanned);
}
BENCHMARK(BM_BuildRoutesLeafSpine)->RangeMultiplier(4)->Range(4, 256);

// One link's cost per packet-hop: a burst offered at once, serialized and
// delivered. A burst of 1 finds the transmitter idle; in a burst of 64,
// every packet but the first waits behind it. Items are packet-hops.
void BM_LinkHop(benchmark::State& state) {
  const std::int64_t burst = state.range(0);
  sim::Simulator sim;
  net::Topology topo(sim);
  net::Host* a = topo.add_host("a");
  net::Host* b = topo.add_host("b");
  topo.connect(*a, *b, 10e9, sim::microseconds(1),
               net::make_droptail_factory(burst * 1500));
  std::int64_t delivered = 0;
  b->register_flow(1, [&delivered](const net::Packet&) { ++delivered; });
  net::Packet pkt;
  pkt.type = net::PacketType::kData;
  pkt.dst = b->id();
  pkt.flow = 1;
  pkt.size_bytes = 1500;
  for (auto _ : state) {
    for (std::int64_t i = 0; i < burst; ++i) a->send(pkt);
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * burst);
}
BENCHMARK(BM_LinkHop)->Arg(1)->Arg(64);

void BM_PacketTransferOneMegabyte(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    net::DumbbellConfig cfg;
    cfg.hosts_per_side = 1;
    auto d = net::make_dumbbell(sim, cfg);
    tcp::TcpFlow flow(sim, *d.left[0], *d.right[0], 1,
                      std::make_unique<tcp::RenoCC>());
    bool done = false;
    flow.send_message(1'000'000, [&](sim::SimTime) { done = true; });
    sim.run();
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_PacketTransferOneMegabyte);

}  // namespace
