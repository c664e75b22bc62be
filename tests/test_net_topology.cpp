#include <gtest/gtest.h>

#include <vector>

#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace mltcp::net {
namespace {

Packet data_to(NodeId dst, FlowId flow, std::int32_t size = 1500) {
  Packet p;
  p.type = PacketType::kData;
  p.dst = dst;
  p.flow = flow;
  p.size_bytes = size;
  return p;
}

// -------------------------------------------------------------- link layer

TEST(Link, SerializationPlusPropagationDelay) {
  sim::Simulator sim;
  Topology topo(sim);
  Host* a = topo.add_host("a");
  Host* b = topo.add_host("b");
  topo.connect(*a, *b, 1e9, sim::microseconds(10),
               make_droptail_factory(1'000'000));

  sim::SimTime arrival = -1;
  b->register_flow(1, [&](const Packet&) { arrival = sim.now(); });
  a->send(data_to(b->id(), 1));
  sim.run();
  // 1500 B at 1 Gbps = 12 us serialization + 10 us propagation.
  EXPECT_EQ(arrival, sim::microseconds(22));
}

TEST(Link, BackToBackPacketsSerialize) {
  sim::Simulator sim;
  Topology topo(sim);
  Host* a = topo.add_host("a");
  Host* b = topo.add_host("b");
  topo.connect(*a, *b, 1e9, sim::microseconds(10),
               make_droptail_factory(1'000'000));

  std::vector<sim::SimTime> arrivals;
  b->register_flow(1, [&](const Packet&) { arrivals.push_back(sim.now()); });
  a->send(data_to(b->id(), 1));
  a->send(data_to(b->id(), 1));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], sim::microseconds(12));
}

TEST(Link, CountsBytesAndUtilization) {
  sim::Simulator sim;
  Topology topo(sim);
  Host* a = topo.add_host("a");
  Host* b = topo.add_host("b");
  topo.connect(*a, *b, 1e9, 0, make_droptail_factory(1'000'000));
  b->register_flow(1, [](const Packet&) {});

  Link* link = topo.link_between(*a, *b);
  ASSERT_NE(link, nullptr);
  for (int i = 0; i < 5; ++i) a->send(data_to(b->id(), 1));
  sim.run();
  EXPECT_EQ(link->packets_transmitted(), 5);
  EXPECT_EQ(link->bytes_transmitted(), 5 * 1500);
  EXPECT_NEAR(link->utilization(sim.now()), 1.0, 1e-6);
}

TEST(Link, TxObserverSeesEveryTransmission) {
  sim::Simulator sim;
  Topology topo(sim);
  Host* a = topo.add_host("a");
  Host* b = topo.add_host("b");
  topo.connect(*a, *b, 1e9, 0, make_droptail_factory(1'000'000));
  b->register_flow(1, [](const Packet&) {});
  int observed = 0;
  topo.link_between(*a, *b)->add_tx_observer(
      [&](const Packet&, sim::SimTime) { ++observed; });
  for (int i = 0; i < 3; ++i) a->send(data_to(b->id(), 1));
  sim.run();
  EXPECT_EQ(observed, 3);
}

TEST(Link, QueueDropsUnderOverload) {
  sim::Simulator sim;
  Topology topo(sim);
  Host* a = topo.add_host("a");
  Host* b = topo.add_host("b");
  topo.connect(*a, *b, 1e9, 0, make_droptail_factory(3 * 1500));
  int received = 0;
  b->register_flow(1, [&](const Packet&) { ++received; });
  for (int i = 0; i < 10; ++i) a->send(data_to(b->id(), 1));
  sim.run();
  // 1 in flight + 3 queued admitted at burst time.
  EXPECT_EQ(received, 4);
  EXPECT_EQ(topo.link_between(*a, *b)->queue().stats().dropped_packets, 6);
}

// -------------------------------------------------------------- hop timing

TEST(Link, IdleHopIsOneEvent) {
  sim::Simulator sim;
  Topology topo(sim);
  Host* a = topo.add_host("a");
  Host* b = topo.add_host("b");
  topo.connect(*a, *b, 1e9, sim::microseconds(10),
               make_droptail_factory(1'000'000));
  int received = 0;
  b->register_flow(1, [&](const Packet&) { ++received; });
  a->send(data_to(b->id(), 1));
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(sim.events_executed(), 1u);  // The delivery alone.
}

TEST(Link, BackToBackPacketsAddOneTxDoneEachBehindTheFirst) {
  constexpr int kPackets = 8;
  sim::Simulator sim;
  Topology topo(sim);
  Host* a = topo.add_host("a");
  Host* b = topo.add_host("b");
  topo.connect(*a, *b, 1e9, sim::microseconds(10),
               make_droptail_factory(1'000'000));
  int received = 0;
  b->register_flow(1, [&](const Packet&) { ++received; });
  for (int i = 0; i < kPackets; ++i) a->send(data_to(b->id(), 1));
  sim.run();
  EXPECT_EQ(received, kPackets);
  // N deliveries, plus a tx-done for each packet that waited.
  EXPECT_EQ(sim.events_executed(), 2u * kPackets - 1);
}

TEST(Link, CountersTakeAPacketAtItsSerializationEnd) {
  sim::Simulator sim;
  Topology topo(sim);
  Host* a = topo.add_host("a");
  Host* b = topo.add_host("b");
  topo.connect(*a, *b, 1e9, sim::microseconds(10),
               make_droptail_factory(1'000'000));
  b->register_flow(1, [](const Packet&) {});
  Link* link = topo.link_between(*a, *b);
  a->send(data_to(b->id(), 1));  // Serializes over [0, 12] us.

  sim.run_until(sim::microseconds(6));
  EXPECT_EQ(link->packets_transmitted(), 0);
  EXPECT_EQ(link->bytes_transmitted(), 0);
  EXPECT_DOUBLE_EQ(link->utilization(sim.now()), 1.0);
  sim.run_until(sim::microseconds(12) - 1);
  EXPECT_EQ(link->packets_transmitted(), 0);
  sim.run_until(sim::microseconds(12));
  EXPECT_EQ(link->packets_transmitted(), 1);
  EXPECT_EQ(link->bytes_transmitted(), 1500);
}

TEST(Link, FifoArrivalAtSerializationEndWaitsBehindQueuedPackets) {
  sim::Simulator sim;
  Topology topo(sim);
  Host* a = topo.add_host("a");
  Host* b = topo.add_host("b");
  topo.connect(*a, *b, 1e9, sim::microseconds(10),
               make_droptail_factory(1'000'000));
  std::vector<std::int64_t> order;
  std::vector<sim::SimTime> arrivals;
  b->register_flow(1, [&](const Packet& p) {
    order.push_back(p.seq);
    arrivals.push_back(sim.now());
  });
  auto numbered = [&](std::int64_t seq) {
    Packet p = data_to(b->id(), 1);
    p.seq = seq;
    return p;
  };
  // Scheduled before the second packet arms the tx-done, so it runs first
  // at 12 us, the instant the first packet's serialization ends.
  sim.schedule(sim::microseconds(12), [&] { a->send(numbered(3)); });
  a->send(numbered(1));
  a->send(numbered(2));
  sim.run();
  EXPECT_EQ(order, (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(arrivals,
            (std::vector<sim::SimTime>{sim::microseconds(22),
                                       sim::microseconds(34),
                                       sim::microseconds(46)}));
}

TEST(Link, PfabricEgressFreedAtAnArrivalInstantServesHigherPriorityFirst) {
  sim::Simulator sim;
  Topology topo(sim);
  Host* a = topo.add_host("a");
  Host* c = topo.add_host("c");
  Host* b = topo.add_host("b");
  Switch* s = topo.add_switch("s");
  const sim::SimTime prop = sim::microseconds(1);
  // a's uplink is built before c's, so its delivery runs first at an
  // instant both deliver.
  topo.connect(*a, *s, 1e9, prop, make_droptail_factory(1'000'000));
  topo.connect(*c, *s, 1e9, prop, make_droptail_factory(1'000'000));
  topo.connect(*s, *b, 1e9, prop, make_pfabric_factory(1'000'000));
  topo.build_routes();
  std::vector<std::int64_t> order;
  b->register_flow(1, [&](const Packet& p) { order.push_back(p.priority); });
  auto prioritized = [&](std::int64_t priority) {
    Packet p = data_to(b->id(), 1);
    p.priority = priority;
    return p;
  };
  // a's packets reach s at 13 and 25 us; the first serializes on s -> b
  // over [13, 25] us. c's reaches s at 25 us too, after a's second.
  a->send(prioritized(500));
  a->send(prioritized(900));
  sim.schedule(sim::microseconds(12), [&] { c->send(prioritized(100)); });
  sim.run();
  // Both arrivals at 25 us queue behind the first packet, and the egress
  // then serves the higher priority (the smaller value) first.
  EXPECT_EQ(order, (std::vector<std::int64_t>{500, 100, 900}));
}

TEST(Link, CutMidSerializationLeavesTheUnsentPartOutOfUtilization) {
  sim::Simulator sim;
  Topology topo(sim);
  Host* a = topo.add_host("a");
  Host* b = topo.add_host("b");
  topo.connect(*a, *b, 1e9, sim::microseconds(10),
               make_droptail_factory(1'000'000));
  int received = 0;
  b->register_flow(1, [&](const Packet&) { ++received; });
  Link* link = topo.link_between(*a, *b);
  a->send(data_to(b->id(), 1));  // Serializes over [0, 12] us.

  sim.run_until(sim::microseconds(6));
  link->set_up(false);
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(link->fault_drops(), 1);
  EXPECT_EQ(link->packets_transmitted(), 0);
  EXPECT_EQ(link->bytes_transmitted(), 0);
  EXPECT_DOUBLE_EQ(link->utilization(sim::microseconds(12)), 0.5);
}

// ---------------------------------------------------------------- routing

TEST(Dumbbell, RoutesAcrossBottleneck) {
  sim::Simulator sim;
  DumbbellConfig cfg;
  cfg.hosts_per_side = 2;
  Dumbbell d = make_dumbbell(sim, cfg);

  int got = 0;
  d.right[1]->register_flow(7, [&](const Packet&) { ++got; });
  d.left[0]->send(data_to(d.right[1]->id(), 7));
  sim.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(d.bottleneck->packets_transmitted(), 1);
}

TEST(Dumbbell, SameSideTrafficSkipsBottleneck) {
  sim::Simulator sim;
  DumbbellConfig cfg;
  cfg.hosts_per_side = 2;
  Dumbbell d = make_dumbbell(sim, cfg);

  int got = 0;
  d.left[1]->register_flow(7, [&](const Packet&) { ++got; });
  d.left[0]->send(data_to(d.left[1]->id(), 7));
  sim.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(d.bottleneck->packets_transmitted(), 0);
}

TEST(Dumbbell, ReverseDirectionUsesReverseLink) {
  sim::Simulator sim;
  DumbbellConfig cfg;
  cfg.hosts_per_side = 1;
  Dumbbell d = make_dumbbell(sim, cfg);
  int got = 0;
  d.left[0]->register_flow(3, [&](const Packet&) { ++got; });
  d.right[0]->send(data_to(d.left[0]->id(), 3));
  sim.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(d.bottleneck_reverse->packets_transmitted(), 1);
  EXPECT_EQ(d.bottleneck->packets_transmitted(), 0);
}

TEST(Star, AllPairsReachable) {
  sim::Simulator sim;
  StarConfig cfg;
  cfg.n_hosts = 4;
  Star s = make_star(sim, cfg);
  int got = 0;
  for (int i = 0; i < 4; ++i) {
    s.hosts[i]->register_flow(i + 1, [&](const Packet&) { ++got; });
  }
  for (int i = 0; i < 4; ++i) {
    s.hosts[i]->send(data_to(s.hosts[(i + 1) % 4]->id(), (i + 1) % 4 + 1));
  }
  sim.run();
  EXPECT_EQ(got, 4);
}

TEST(LeafSpine, CrossRackTraversesSpine) {
  sim::Simulator sim;
  LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 2;
  cfg.spines = 1;
  LeafSpine ls = make_leaf_spine(sim, cfg);

  int got = 0;
  ls.racks[1][0]->register_flow(5, [&](const Packet&) { ++got; });
  ls.racks[0][0]->send(data_to(ls.racks[1][0]->id(), 5));
  sim.run();
  EXPECT_EQ(got, 1);
  // tor0 -> spine and spine -> tor1 both carried the packet.
  EXPECT_EQ(
      ls.topology->link_between(*ls.tors[0], *ls.spines[0])->packets_transmitted(),
      1);
  EXPECT_EQ(
      ls.topology->link_between(*ls.spines[0], *ls.tors[1])->packets_transmitted(),
      1);
}

TEST(LeafSpine, IntraRackStaysLocal) {
  sim::Simulator sim;
  LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 2;
  LeafSpine ls = make_leaf_spine(sim, cfg);
  int got = 0;
  ls.racks[0][1]->register_flow(5, [&](const Packet&) { ++got; });
  ls.racks[0][0]->send(data_to(ls.racks[0][1]->id(), 5));
  sim.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(
      ls.topology->link_between(*ls.tors[0], *ls.spines[0])->packets_transmitted(),
      0);
}

// ------------------------------------------------------------------ hosts

TEST(Host, UnclaimedPacketsCounted) {
  sim::Simulator sim;
  Topology topo(sim);
  Host* a = topo.add_host("a");
  Host* b = topo.add_host("b");
  topo.connect(*a, *b, 1e9, 0, make_droptail_factory(1'000'000));
  a->send(data_to(b->id(), 42));  // no handler registered
  sim.run();
  EXPECT_EQ(b->unclaimed_packets(), 1);
  EXPECT_EQ(b->delivered_packets(), 0);
}

TEST(Host, UnregisterStopsDelivery) {
  sim::Simulator sim;
  Topology topo(sim);
  Host* a = topo.add_host("a");
  Host* b = topo.add_host("b");
  topo.connect(*a, *b, 1e9, 0, make_droptail_factory(1'000'000));
  int got = 0;
  b->register_flow(1, [&](const Packet&) { ++got; });
  b->unregister_flow(1);
  a->send(data_to(b->id(), 1));
  sim.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(b->unclaimed_packets(), 1);
}

TEST(Switch, RoutelessPacketDropped) {
  sim::Simulator sim;
  Topology topo(sim);
  Switch* sw = topo.add_switch("sw");
  Host* a = topo.add_host("a");
  topo.connect(*a, *sw, 1e9, 0, make_droptail_factory(1'000'000));
  topo.build_routes();
  Packet p = data_to(999, 1);  // unknown destination
  a->send(p);
  sim.run();
  EXPECT_EQ(sw->routeless_drops(), 1);
}

}  // namespace
}  // namespace mltcp::net
