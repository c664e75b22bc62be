// Sharded-PDES tests: the conservative-lookahead parallel engine must be
// invisible in the results — 1-shard, N-shard cooperative and N-shard
// threaded runs of the same experiment reach identical model state and
// execute the same events (the byte-identity matrix, including cuts around
// the end of a serialization, which a cut link's channel must withdraw
// exactly as a local link cancels its delivery event), the partitioner
// must respect rack atomicity and co-location on arbitrary fabrics, the
// cross-shard channel must keep its FIFO/LBTS contract under concurrency,
// and bad setup must fail loudly.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/topology.hpp"
#include "pdes/channel.hpp"
#include "pdes/partition.hpp"
#include "pdes/sharded_runner.hpp"
#include "scenario/engine.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "tcp/reno.hpp"
#include "telemetry/tracer.hpp"
#include "traffic/source.hpp"
#include "workload/cluster.hpp"
#include "workload/collective.hpp"

namespace mltcp {
namespace {

using pdes::Partition;
using pdes::PartitionOptions;

// ------------------------------------------------------------- partitioner

net::LeafSpineConfig leaf_spine_config(int racks, int hosts_per_rack,
                                       int spines) {
  net::LeafSpineConfig cfg;
  cfg.racks = racks;
  cfg.hosts_per_rack = hosts_per_rack;
  cfg.spines = spines;
  return cfg;
}

TEST(PdesPartition, RandomFabricsCoverEveryNodeOnceAndKeepRacksAtomic) {
  std::mt19937 rng(20240807);
  for (int trial = 0; trial < 24; ++trial) {
    const int racks = 2 + static_cast<int>(rng() % 5);
    const int hosts_per_rack = 1 + static_cast<int>(rng() % 4);
    const int spines = 1 + static_cast<int>(rng() % 3);
    const int shards = 1 + static_cast<int>(rng() % 6);

    sim::Simulator sim;
    auto ls = net::make_leaf_spine(
        sim, leaf_spine_config(racks, hosts_per_rack, spines));
    const net::Topology& topo = *ls.topology;

    PartitionOptions opts;
    opts.shards = shards;
    const Partition part = pdes::partition_topology(topo, opts);

    SCOPED_TRACE("racks=" + std::to_string(racks) +
                 " hosts=" + std::to_string(hosts_per_rack) +
                 " spines=" + std::to_string(spines) +
                 " shards=" + std::to_string(shards));

    // Every node is assigned to exactly one in-range shard.
    ASSERT_EQ(part.shard_of_node.size(),
              topo.hosts().size() + topo.switches().size());
    EXPECT_GE(part.shards, 1);
    EXPECT_LE(part.shards, shards);
    for (const int s : part.shard_of_node) {
      EXPECT_GE(s, 0);
      EXPECT_LT(s, part.shards);
    }

    // Rack atomicity: a host shares its shard with its ToR, so no
    // host-access link is ever cut.
    for (const net::Host* h : topo.hosts()) {
      ASSERT_NE(h->uplink(), nullptr);
      EXPECT_EQ(part.shard_of(h), part.shard_of(h->uplink()->destination()));
    }

    // Cut set: exactly the links whose endpoints land in different shards,
    // each with strictly positive lookahead.
    std::size_t expected_cuts = 0;
    for (std::size_t src = 0; src < topo.adjacency().size(); ++src) {
      for (const auto& [dst, link] : topo.adjacency()[src]) {
        if (part.shard_of_node[src] !=
            part.shard_of_node[static_cast<std::size_t>(dst)]) {
          ++expected_cuts;
        }
      }
    }
    EXPECT_EQ(part.cut_links.size(), expected_cuts);
    for (const pdes::CutLink& cut : part.cut_links) {
      EXPECT_NE(cut.src_shard, cut.dst_shard);
      EXPECT_GT(cut.link->propagation_delay(), 0);
      EXPECT_GE(part.min_lookahead, 1);
      EXPECT_LE(part.min_lookahead, cut.link->propagation_delay());
    }
    if (part.shards == 1) {
      EXPECT_TRUE(part.cut_links.empty());
    }

    // Determinism: the partition is a pure function of (topology, options).
    const Partition again = pdes::partition_topology(topo, opts);
    EXPECT_EQ(part.shard_of_node, again.shard_of_node);
    ASSERT_EQ(part.cut_links.size(), again.cut_links.size());
    for (std::size_t i = 0; i < part.cut_links.size(); ++i) {
      EXPECT_EQ(part.cut_links[i].link, again.cut_links[i].link);
    }
  }
}

TEST(PdesPartition, CoLocateMergesGroupsAcrossRacks) {
  sim::Simulator sim;
  auto ls = net::make_leaf_spine(sim, leaf_spine_config(4, 2, 2));
  PartitionOptions opts;
  opts.shards = 4;
  // Pin one sender per rack into a single set: all four racks collapse into
  // one group, so they must share a shard.
  opts.co_locate.push_back({ls.racks[0][0], ls.racks[1][0], ls.racks[2][0],
                            ls.racks[3][0]});
  const Partition part = pdes::partition_topology(*ls.topology, opts);
  for (int r = 1; r < 4; ++r) {
    EXPECT_EQ(part.shard_of(ls.racks[0][0]), part.shard_of(ls.racks[r][0]));
  }
}

TEST(PdesPartition, RejectsCutLinkWithoutPropagationDelay) {
  // Zero lookahead would stall conservative synchronization at the first
  // round; the partitioner refuses the cut instead.
  sim::Simulator sim;
  net::DumbbellConfig cfg;
  cfg.hosts_per_side = 1;
  cfg.bottleneck_delay = 0;
  auto d = net::make_dumbbell(sim, cfg);
  PartitionOptions opts;
  opts.shards = 2;
  try {
    pdes::partition_topology(*d.topology, opts);
    FAIL() << "a zero-delay cut link was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(d.bottleneck->name()), std::string::npos) << what;
    EXPECT_NE(what.find("delay 0"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------- channel

TEST(PdesChannel, KeepsFifoOrderAndMonotoneLbts) {
  sim::Simulator sim;
  net::DumbbellConfig cfg;
  cfg.hosts_per_side = 1;
  auto d = net::make_dumbbell(sim, cfg);
  pdes::CrossShardChannel ch(d.bottleneck);

  net::Packet pkt{};
  ch.deliver(100, 7, d.right_switch, pkt);
  ch.deliver(250, 8, d.right_switch, pkt);
  ch.advance(400);
  ch.advance(300);  // Stale: must not lower the bound.
  EXPECT_EQ(ch.lbts(), 400);

  EXPECT_EQ(ch.drain(), 2u);
  std::vector<pdes::Delivery> out;
  for (; !ch.empty(); ch.pop()) out.push_back(ch.front());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].when, 100);
  EXPECT_EQ(out[1].when, 250);
  EXPECT_EQ(out[0].key, 7u);
  EXPECT_EQ(out[1].key, 8u);
  EXPECT_GE(ch.null_updates(), 2u);
  EXPECT_EQ(ch.max_backlog(), 2u);

  ch.force_lbts(10);  // Barrier reset may lower.
  EXPECT_EQ(ch.lbts(), 10);
}

TEST(PdesChannel, ThreadedProducerConsumerPreservesStreamOrder) {
  sim::Simulator sim;
  net::DumbbellConfig cfg;
  cfg.hosts_per_side = 1;
  auto d = net::make_dumbbell(sim, cfg);
  pdes::CrossShardChannel ch(d.bottleneck);
  pdes::ShardSignal signal;
  ch.set_consumer_signal(&signal);

  constexpr int kPushes = 20000;
  std::thread producer([&] {
    net::Packet pkt{};
    for (int i = 0; i < kPushes; ++i) {
      ch.deliver(1000 + i, static_cast<std::uint64_t>(i), d.right_switch, pkt);
    }
    ch.advance(sim::kTimeInfinity);
  });

  std::vector<pdes::Delivery> got;
  while (got.size() < kPushes) {
    const std::uint64_t seen = signal.version();
    if (ch.drain() == 0 && got.size() < kPushes) signal.wait(seen);
    for (; !ch.empty(); ch.pop()) got.push_back(ch.front());
  }
  producer.join();

  ASSERT_EQ(got.size(), static_cast<std::size_t>(kPushes));
  for (int i = 0; i < kPushes; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].when, 1000 + i);
    EXPECT_EQ(got[static_cast<std::size_t>(i)].key,
              static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(ch.lbts(), sim::kTimeInfinity);
}

TEST(PdesChannel, RetractWithdrawsTheNewestDelivery) {
  sim::Simulator sim;
  net::DumbbellConfig cfg;
  cfg.hosts_per_side = 1;
  auto d = net::make_dumbbell(sim, cfg);
  pdes::CrossShardChannel ch(d.bottleneck);

  net::Packet pkt{};
  ch.deliver(100, 1, d.right_switch, pkt);
  ch.deliver(200, 2, d.right_switch, pkt);
  ch.deliver(300, 3, d.right_switch, pkt);
  ch.retract(3);  // Still in the inbox.
  EXPECT_EQ(ch.drain(), 2u);
  ch.deliver(400, 4, d.right_switch, pkt);
  EXPECT_EQ(ch.drain(), 1u);
  ch.retract(4);  // Already moved into the import buffer.
  EXPECT_EQ(ch.drain(), 0u);

  std::vector<pdes::Delivery> out;
  for (; !ch.empty(); ch.pop()) out.push_back(ch.front());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].when, 100);
  EXPECT_EQ(out[0].key, 1u);
  EXPECT_EQ(out[1].when, 200);
  EXPECT_EQ(out[1].key, 2u);
}

// ----------------------------------------------------- byte-identity matrix

enum class Exec { kSerial, kCooperative, kThreaded };

/// Full observable model state of one run: every iteration record of every
/// job plus every per-link / per-node counter. Any divergence between
/// execution modes — an event reordered, a packet dropped differently —
/// shows up here.
std::string digest(const workload::Cluster& cluster,
                   const net::Topology& topo) {
  std::ostringstream os;
  for (std::size_t j = 0; j < cluster.job_count(); ++j) {
    const workload::Job* job = cluster.job(j);
    os << "job " << j << ' ' << job->completed_iterations() << '\n';
    for (const workload::IterationRecord& r : job->iterations()) {
      os << r.index << ' ' << r.comm_start << ' ' << r.comm_end << ' '
         << r.iter_end << '\n';
    }
  }
  for (const auto& link : topo.links()) {
    os << "link " << link->bytes_transmitted() << ' '
       << link->packets_transmitted() << ' ' << link->fault_drops() << '\n';
  }
  for (const net::Host* h : topo.hosts()) {
    os << "host " << h->delivered_packets() << '\n';
  }
  for (const net::Switch* s : topo.switches()) {
    os << "switch " << s->forwarded_packets() << '\n';
  }
  return os.str();
}

void append_fcts(const traffic::TrafficSource* source, std::ostringstream& os) {
  ASSERT_NE(source, nullptr);
  os << "traffic " << source->posted() << ' ' << source->completed() << ' '
     << source->bytes_completed() << '\n';
  for (const traffic::FctRecord& r : source->records()) {
    os << r.arrival << ' ' << r.completed << ' ' << r.bytes << ' ' << r.src
       << ' ' << r.dst << '\n';
  }
}

pdes::ShardedRunner::Mode runner_mode(Exec exec) {
  return exec == Exec::kThreaded ? pdes::ShardedRunner::Mode::kThreaded
                                 : pdes::ShardedRunner::Mode::kCooperative;
}

/// The run's work: events executed, with each scenario instant counted once.
/// A scenario event runs as a queue event serially but at a global barrier
/// when sharded, so a sharded run adds the engine's applied events; that
/// matches the serial count when every scenario event has its own instant.
std::string work(Exec exec, const sim::Simulator& sim,
                 const scenario::ScenarioEngine& engine) {
  std::uint64_t events = sim.events_executed();
  if (exec != Exec::kSerial) {
    events += static_cast<std::uint64_t>(engine.applied_events());
  }
  return "events " + std::to_string(events) + '\n';
}

/// A dumbbell fine-tuning mix (the fig-6 shape: a few jobs sharing one
/// bottleneck), optionally with the faulted scenario layered on top.
std::string dumbbell_run(Exec exec, int shards, bool faulted) {
  sim::Simulator sim;
  net::DumbbellConfig cfg;
  cfg.hosts_per_side = 3;
  auto d = net::make_dumbbell(sim, cfg);
  workload::Cluster cluster(sim);

  std::vector<workload::JobSpec> specs;
  for (int j = 0; j < 3; ++j) {
    workload::JobSpec spec;
    spec.name = "j" + std::to_string(j);
    spec.flows = workload::single_flow(d.left[j], d.right[j],
                                       400'000 + 100'000 * j);
    spec.compute_time = sim::milliseconds(3 + 2 * j);
    spec.max_iterations = 10;
    spec.cc = [] { return std::make_unique<tcp::RenoCC>(); };
    specs.push_back(spec);
  }
  for (const workload::JobSpec& spec : specs) cluster.add_job(spec);

  scenario::Scenario s;
  if (faulted) {
    s.link_down(sim::milliseconds(40), "swL", "swR")
        .link_up(sim::milliseconds(90), "swL", "swR")
        .drop_burst(sim::milliseconds(150), "swL", "swR", 0.02, 7)
        .drop_burst(sim::milliseconds(300), "swL", "swR", 0.0)
        .link_rate(sim::milliseconds(350), "swL", "swR", 8e8)
        .straggler(sim::milliseconds(200), "j1", 2, sim::milliseconds(10))
        .background_burst(sim::milliseconds(250), 0, 4, 200'000);
  }
  scenario::ScenarioEngine engine(sim, *d.topology, cluster);

  const sim::SimTime kEnd = sim::seconds(2);
  if (exec == Exec::kSerial) {
    if (faulted) engine.install(s);
    cluster.start_all();
    sim.run_until(kEnd);
  } else {
    PartitionOptions opts;
    opts.shards = shards;
    opts.co_locate = pdes::co_locate_senders(specs);
    const Partition part = pdes::partition_topology(*d.topology, opts);
    EXPECT_EQ(part.shards, shards) << "test expects a real split";
    sim.configure_shards(part.shards);
    engine.set_shard_mapper(
        [part](const net::Node* n) { return part.shard_of(n); }, part.shards);
    if (faulted) engine.install(s);
    pdes::ShardedRunner runner(sim, *d.topology, part, runner_mode(exec));
    runner.set_scenario(&engine);
    pdes::start_all_sharded(cluster, specs, sim, part);
    runner.run_until(kEnd);
    EXPECT_GT(sim.events_executed(), 0u);
    if (faulted) {
      EXPECT_GT(runner.totals().imports, 0u);
    }
  }

  std::ostringstream os;
  os << digest(cluster, *d.topology);
  if (faulted) os << "applied " << engine.applied_events() << '\n';
  os << work(exec, sim, engine);
  return os.str();
}

TEST(PdesIdentity, DumbbellTwoShardsMatchSerial) {
  const std::string serial = dumbbell_run(Exec::kSerial, 1, false);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, dumbbell_run(Exec::kCooperative, 2, false));
  EXPECT_EQ(serial, dumbbell_run(Exec::kThreaded, 2, false));
}

TEST(PdesIdentity, FaultedScenarioMatchesSerial) {
  const std::string serial = dumbbell_run(Exec::kSerial, 1, true);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, dumbbell_run(Exec::kCooperative, 2, true));
  EXPECT_EQ(serial, dumbbell_run(Exec::kThreaded, 2, true));
}

/// Cross-rack ring traffic on a leaf-spine: every flow transits the fabric,
/// so every shard boundary carries load, including a traffic-matrix burst
/// replayed in per-shard lanes. A nonzero `snapshot` also reads the burst's
/// records at that instant, between two run_until calls.
std::string leaf_spine_run(Exec exec, int shards, sim::SimTime snapshot = 0) {
  sim::Simulator sim;
  auto ls = net::make_leaf_spine(sim, leaf_spine_config(4, 2, 2));
  workload::Cluster cluster(sim);

  std::vector<workload::JobSpec> specs;
  for (int r = 0; r < 4; ++r) {
    workload::JobSpec spec;
    spec.name = "ring" + std::to_string(r);
    spec.flows = workload::single_flow(ls.racks[r][0],
                                       ls.racks[(r + 1) % 4][0], 300'000);
    spec.compute_time = sim::milliseconds(2 + r);
    spec.max_iterations = 8;
    spec.cc = [] { return std::make_unique<tcp::RenoCC>(); };
    specs.push_back(spec);
  }
  for (const workload::JobSpec& spec : specs) cluster.add_job(spec);

  traffic::TrafficConfig tc;
  tc.pattern = traffic::Pattern::kPermutation;
  tc.mean_bytes = 50'000;
  tc.flows_per_second = 400.0;
  tc.start = sim::milliseconds(20);
  tc.stop = sim::milliseconds(120);
  scenario::Scenario s;
  s.traffic_burst(sim::milliseconds(10), "mix", tc);

  scenario::ScenarioEngine engine(sim, *ls.topology, cluster);
  const sim::SimTime kEnd = sim::seconds(1);
  std::ostringstream os;
  const auto run = [&](auto& driver) {
    if (snapshot > 0) {
      driver.run_until(snapshot);
      append_fcts(engine.traffic_source("mix"), os);
    }
    driver.run_until(kEnd);
  };
  if (exec == Exec::kSerial) {
    engine.install(s);
    cluster.start_all();
    run(sim);
  } else {
    PartitionOptions opts;
    opts.shards = shards;
    opts.co_locate = pdes::co_locate_senders(specs);
    const Partition part = pdes::partition_topology(*ls.topology, opts);
    sim.configure_shards(part.shards);
    engine.set_shard_mapper(
        [part](const net::Node* n) { return part.shard_of(n); }, part.shards);
    engine.install(s);
    pdes::ShardedRunner runner(sim, *ls.topology, part, runner_mode(exec));
    runner.set_scenario(&engine);
    pdes::start_all_sharded(cluster, specs, sim, part);
    run(runner);
    EXPECT_GT(runner.totals().imports, 0u);
  }

  os << digest(cluster, *ls.topology);
  append_fcts(engine.traffic_source("mix"), os);
  os << work(exec, sim, engine);
  return os.str();
}

TEST(PdesIdentity, LeafSpineFourShardsWithTrafficMatchSerial) {
  const std::string serial = leaf_spine_run(Exec::kSerial, 1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, leaf_spine_run(Exec::kCooperative, 4));
  EXPECT_EQ(serial, leaf_spine_run(Exec::kThreaded, 4));
}

TEST(PdesIdentity, LanedTrafficReadMidReplayMatchesSerial) {
  // 60 ms lies inside the burst's 20-120 ms window: lanes are mid-replay.
  const sim::SimTime snapshot = sim::milliseconds(60);
  const std::string serial = leaf_spine_run(Exec::kSerial, 1, snapshot);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, leaf_spine_run(Exec::kCooperative, 4, snapshot));
  EXPECT_EQ(serial, leaf_spine_run(Exec::kThreaded, 4, snapshot));
}

/// `packets` back-to-back packets across a 1 + 1 dumbbell whose bottleneck
/// (swL -> swR) is cut `offset` ns from the instant the first finishes
/// serializing on it; the host link is ten times faster, so later packets
/// queue behind the first there. Reports the deliveries and the
/// bottleneck's fault drops and counters. At 2 shards the bottleneck is a
/// cut link, so the cut withdraws its channel's delivery where the serial
/// run cancels the delivery event, and cancels a backlog's tx-done from
/// the coordinator thread.
std::string cut_run(Exec exec, sim::SimTime offset, int packets = 1) {
  sim::Simulator sim;
  net::DumbbellConfig cfg;
  cfg.hosts_per_side = 1;
  auto d = net::make_dumbbell(sim, cfg);
  workload::Cluster cluster(sim);
  int delivered = 0;
  d.right[0]->register_flow(1, [&](const net::Packet&) { ++delivered; });

  net::Packet pkt;
  pkt.type = net::PacketType::kData;
  pkt.dst = d.right[0]->id();
  pkt.flow = 1;
  pkt.size_bytes = 1500;
  // The uplink's serialization and propagation, then the bottleneck's
  // serialization.
  const sim::SimTime end =
      sim::transmission_time(pkt.size_bytes, cfg.host_rate_bps) +
      cfg.host_delay +
      sim::transmission_time(pkt.size_bytes, cfg.bottleneck_rate_bps);
  scenario::Scenario s;
  s.link_down(end + offset, "swL", "swR");
  scenario::ScenarioEngine engine(sim, *d.topology, cluster);
  auto send = [&] {
    for (int i = 0; i < packets; ++i) d.left[0]->send(pkt);
  };

  const sim::SimTime kEnd = sim::milliseconds(1);
  if (exec == Exec::kSerial) {
    engine.install(s);
    send();
    sim.run_until(kEnd);
  } else {
    PartitionOptions opts;
    opts.shards = 2;
    const Partition part = pdes::partition_topology(*d.topology, opts);
    bool bottleneck_cut = false;
    for (const pdes::CutLink& cut : part.cut_links) {
      bottleneck_cut |= cut.link == d.bottleneck;
    }
    EXPECT_TRUE(bottleneck_cut) << "the bottleneck must cross shards";
    sim.configure_shards(part.shards);
    engine.set_shard_mapper(
        [part](const net::Node* n) { return part.shard_of(n); }, part.shards);
    engine.install(s);
    pdes::ShardedRunner runner(sim, *d.topology, part, runner_mode(exec));
    runner.set_scenario(&engine);
    {
      sim::Simulator::ShardGuard guard(sim, part.shard_of(d.left[0]));
      send();
    }
    runner.run_until(kEnd);
  }

  std::ostringstream os;
  os << "delivered " << delivered << " drops " << d.bottleneck->fault_drops()
     << " packets " << d.bottleneck->packets_transmitted() << " bytes "
     << d.bottleneck->bytes_transmitted();
  return os.str();
}

void expect_cut_outcome(sim::SimTime offset, const std::string& want,
                        int packets = 1) {
  EXPECT_EQ(cut_run(Exec::kSerial, offset, packets), want);
  EXPECT_EQ(cut_run(Exec::kCooperative, offset, packets), want);
  EXPECT_EQ(cut_run(Exec::kThreaded, offset, packets), want);
}

TEST(PdesIdentity, CutBeforeSerializationEndLosesThePacket) {
  expect_cut_outcome(-1, "delivered 0 drops 1 packets 0 bytes 0");
}

TEST(PdesIdentity, CutAtSerializationEndLosesThePacket) {
  // Scenario events apply first at an instant, so the cut beats the end.
  expect_cut_outcome(0, "delivered 0 drops 1 packets 0 bytes 0");
}

TEST(PdesIdentity, CutAfterSerializationEndDelivers) {
  expect_cut_outcome(1, "delivered 1 drops 0 packets 1 bytes 1500");
}

TEST(PdesIdentity, CutDuringFirstSerializationLosesTheBacklog) {
  // The first packet's delivery is withdrawn and the second, queued behind
  // it, is drained with its pending tx-done.
  expect_cut_outcome(-1, "delivered 0 drops 2 packets 0 bytes 0", 2);
}

TEST(PdesIdentity, CutDuringSecondSerializationDeliversTheFirst) {
  expect_cut_outcome(1, "delivered 1 drops 1 packets 1 bytes 1500", 2);
}

TEST(PdesIdentity, RepeatedRunUntilMatchesOneShot) {
  // Splitting the wall into many run_until calls exercises the frontier
  // reset on every re-entry; the result must not depend on the split.
  auto split_run = [](const std::vector<sim::SimTime>& stops) {
    sim::Simulator sim;
    net::DumbbellConfig cfg;
    cfg.hosts_per_side = 2;
    auto d = net::make_dumbbell(sim, cfg);
    workload::Cluster cluster(sim);
    std::vector<workload::JobSpec> specs;
    workload::JobSpec spec;
    spec.name = "j0";
    spec.flows = workload::single_flow(d.left[0], d.right[0], 500'000);
    spec.compute_time = sim::milliseconds(4);
    spec.max_iterations = 6;
    spec.cc = [] { return std::make_unique<tcp::RenoCC>(); };
    specs.push_back(spec);
    cluster.add_job(spec);

    PartitionOptions opts;
    opts.shards = 2;
    opts.co_locate = pdes::co_locate_senders(specs);
    const Partition part = pdes::partition_topology(*d.topology, opts);
    sim.configure_shards(part.shards);
    pdes::ShardedRunner runner(sim, *d.topology, part,
                               pdes::ShardedRunner::Mode::kCooperative);
    pdes::start_all_sharded(cluster, specs, sim, part);
    for (const sim::SimTime stop : stops) runner.run_until(stop);
    return digest(cluster, *d.topology);
  };

  const auto one_shot = split_run({sim::seconds(1)});
  const auto split = split_run({sim::milliseconds(17), sim::milliseconds(111),
                                sim::milliseconds(400), sim::seconds(1)});
  EXPECT_EQ(one_shot, split);
}

TEST(PdesRunner, ExportsShardMetrics) {
  sim::Simulator sim;
  net::DumbbellConfig cfg;
  cfg.hosts_per_side = 2;
  auto d = net::make_dumbbell(sim, cfg);
  workload::Cluster cluster(sim);
  std::vector<workload::JobSpec> specs;
  workload::JobSpec spec;
  spec.name = "j0";
  spec.flows = workload::single_flow(d.left[0], d.right[0], 200'000);
  spec.compute_time = sim::milliseconds(5);
  spec.max_iterations = 3;
  spec.cc = [] { return std::make_unique<tcp::RenoCC>(); };
  specs.push_back(spec);
  cluster.add_job(spec);

  PartitionOptions opts;
  opts.shards = 2;
  opts.co_locate = pdes::co_locate_senders(specs);
  const Partition part = pdes::partition_topology(*d.topology, opts);
  sim.configure_shards(part.shards);
  pdes::ShardedRunner runner(sim, *d.topology, part,
                             pdes::ShardedRunner::Mode::kCooperative);
  pdes::start_all_sharded(cluster, specs, sim, part);
  runner.run_until(sim::milliseconds(500));

  ASSERT_EQ(runner.shards(), 2);
  EXPECT_EQ(runner.workers(), 1);
  const pdes::ShardStats totals = runner.totals();
  EXPECT_GT(sim.events_executed(), 0u);
  EXPECT_GT(totals.imports, 0u);  // Every data packet crosses the trunk.
  EXPECT_GT(totals.null_updates, 0u);

  telemetry::MetricRegistry registry;
  runner.export_metrics(registry);
  EXPECT_EQ(registry.counter("pdes/total/imports").value(),
            static_cast<std::int64_t>(totals.imports));
  EXPECT_EQ(registry.counter("pdes/shard0/events").value() +
                registry.counter("pdes/shard1/events").value(),
            static_cast<std::int64_t>(sim.events_executed()));
}

TEST(PdesRunner, AutoModeRunsCooperativelyWithMoreShardsThanCores) {
  // kAuto gives each shard a thread only when every shard gets a core. A
  // core count of 0 ("unknown") counts as one.
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores > 16) {
    GTEST_SKIP() << "one rack per shard past 16 cores outgrows a unit test";
  }
  const int shards = static_cast<int>(std::max(cores, 1u)) + 1;
  sim::Simulator sim;
  auto ls = net::make_leaf_spine(sim, leaf_spine_config(shards, 1, 1));
  workload::Cluster cluster(sim);
  std::vector<workload::JobSpec> specs;
  workload::JobSpec spec;
  spec.name = "j0";
  spec.flows = workload::single_flow(ls.racks[0][0], ls.racks[1][0], 100'000);
  spec.max_iterations = 2;
  spec.cc = [] { return std::make_unique<tcp::RenoCC>(); };
  specs.push_back(spec);
  cluster.add_job(spec);

  PartitionOptions opts;
  opts.shards = shards;
  opts.co_locate = pdes::co_locate_senders(specs);
  const Partition part = pdes::partition_topology(*ls.topology, opts);
  ASSERT_EQ(part.shards, shards);
  sim.configure_shards(part.shards);
  pdes::ShardedRunner runner(sim, *ls.topology, part);
  pdes::start_all_sharded(cluster, specs, sim, part);
  runner.run_until(sim::milliseconds(50));
  EXPECT_EQ(runner.workers(), 1);
  EXPECT_GT(runner.totals().imports, 0u);
}

/// A 1 + 1 dumbbell with one job, for the setup checks below.
struct OneJobRig {
  sim::Simulator sim;
  net::Dumbbell d;
  workload::Cluster cluster{sim};
  std::vector<workload::JobSpec> specs;

  explicit OneJobRig(net::DumbbellConfig cfg = {}) {
    cfg.hosts_per_side = 1;
    d = net::make_dumbbell(sim, cfg);
    workload::JobSpec spec;
    spec.name = "j0";
    spec.flows = workload::single_flow(d.left[0], d.right[0], 100'000);
    spec.max_iterations = 2;
    spec.cc = [] { return std::make_unique<tcp::RenoCC>(); };
    specs.push_back(spec);
    cluster.add_job(spec);
  }

  Partition two_shards() const {
    PartitionOptions opts;
    opts.shards = 2;
    return pdes::partition_topology(*d.topology, opts);
  }
};

TEST(PdesRunner, RejectsUnconfiguredShards) {
  OneJobRig rig;
  const Partition part = rig.two_shards();
  EXPECT_THROW(
      { pdes::ShardedRunner runner(rig.sim, *rig.d.topology, part); },
      std::invalid_argument);
}

TEST(PdesRunner, RejectsAttachedTracer) {
  OneJobRig rig;
  const Partition part = rig.two_shards();
  rig.sim.configure_shards(part.shards);
  telemetry::Tracer tracer;
  rig.sim.set_tracer(&tracer);
  EXPECT_THROW(
      { pdes::ShardedRunner runner(rig.sim, *rig.d.topology, part); },
      std::invalid_argument);
}

TEST(PdesRunner, RejectsSpecsThatDoNotMatchTheJobs) {
  OneJobRig rig;
  const Partition part = rig.two_shards();
  rig.sim.configure_shards(part.shards);
  std::vector<workload::JobSpec> two = {rig.specs[0], rig.specs[0]};
  EXPECT_THROW(pdes::start_all_sharded(rig.cluster, two, rig.sim, part),
               std::invalid_argument);
  EXPECT_THROW(pdes::start_all_sharded(rig.cluster, {}, rig.sim, part),
               std::invalid_argument);
}

TEST(PdesRunner, StallWithoutLookaheadThrows) {
  // partition_topology refuses a zero-delay cut, so build that cut by hand:
  // the cooperative scheduler must report the stall, not return early.
  net::DumbbellConfig cfg;
  cfg.bottleneck_delay = 0;
  OneJobRig rig(cfg);
  Partition part;
  part.shards = 2;
  part.shard_of_node.assign(rig.d.topology->hosts().size() +
                                rig.d.topology->switches().size(),
                            0);
  part.shard_of_node[static_cast<std::size_t>(rig.d.right[0]->id())] = 1;
  part.shard_of_node[static_cast<std::size_t>(rig.d.right_switch->id())] = 1;
  part.cut_links = {{rig.d.bottleneck, 0, 1},
                    {rig.d.bottleneck_reverse, 1, 0}};
  part.min_lookahead = 0;
  rig.sim.configure_shards(part.shards);
  pdes::ShardedRunner runner(rig.sim, *rig.d.topology, part,
                             pdes::ShardedRunner::Mode::kCooperative);
  pdes::start_all_sharded(rig.cluster, rig.specs, rig.sim, part);
  EXPECT_THROW(runner.run_until(sim::milliseconds(10)), std::logic_error);
}

}  // namespace
}  // namespace mltcp
