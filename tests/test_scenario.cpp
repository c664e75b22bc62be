// Scenario-engine tests: scripted fault replay must be deterministic (same
// seed + scenario -> byte-identical campaign output at any thread count), an
// empty scenario must leave a run untouched, a cable cut must remove exactly
// the routes it breaks until the heal, the transport must survive
// blackouts longer than the RTO cap, and bad input must fail install()
// with a message.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "runner/campaign.hpp"
#include "runner/sinks.hpp"
#include "scenario/engine.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "tcp/flow.hpp"
#include "tcp/reno.hpp"
#include "workload/cluster.hpp"
#include "workload/collective.hpp"

namespace mltcp {
namespace {

/// Synthetic training jobs over a dumbbell: small enough to run in
/// milliseconds, real enough to exercise the full stack under faults.
struct Rig {
  sim::Simulator sim;
  net::Dumbbell d;
  workload::Cluster cluster{sim};

  explicit Rig(int hosts_per_side = 3) {
    net::DumbbellConfig cfg;
    cfg.hosts_per_side = hosts_per_side;
    d = net::make_dumbbell(sim, cfg);
  }

  workload::Job* add_job(const std::string& name, int pair, std::int64_t bytes,
                         sim::SimTime compute, int iterations) {
    workload::JobSpec spec;
    spec.name = name;
    spec.flows = workload::single_flow(d.left[pair], d.right[pair], bytes);
    spec.compute_time = compute;
    spec.max_iterations = iterations;
    spec.cc = [] { return std::make_unique<tcp::RenoCC>(); };
    return cluster.add_job(spec);
  }
};

// ------------------------------------------------------ zero perturbation

TEST(Scenario, EmptyScenarioLeavesRunByteIdentical) {
  auto run = [](bool with_engine) {
    Rig rig;
    workload::Job* j0 = rig.add_job("j0", 0, 1'000'000, sim::milliseconds(5),
                                    15);
    workload::Job* j1 = rig.add_job("j1", 1, 1'500'000, sim::milliseconds(7),
                                    15);
    scenario::ScenarioEngine engine(rig.sim, *rig.d.topology, rig.cluster);
    if (with_engine) engine.install(scenario::Scenario{});
    rig.cluster.start_all();
    rig.sim.run_until(sim::seconds(5));
    std::vector<workload::IterationRecord> records;
    for (const workload::Job* j : {j0, j1}) {
      records.insert(records.end(), j->iterations().begin(),
                     j->iterations().end());
    }
    return records;
  };
  const auto base = run(false);
  const auto with_empty = run(true);
  ASSERT_EQ(base.size(), with_empty.size());
  ASSERT_GT(base.size(), 0u);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].comm_start, with_empty[i].comm_start) << i;
    EXPECT_EQ(base[i].comm_end, with_empty[i].comm_end) << i;
    EXPECT_EQ(base[i].iter_end, with_empty[i].iter_end) << i;
  }
}

// --------------------------------------------------------------- cable cuts

TEST(Scenario, PairCutStrandsOneHostUntilHeal) {
  sim::Simulator sim;
  net::LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.spines = 2;
  auto ls = net::make_leaf_spine(sim, cfg);
  net::Topology& topo = *ls.topology;

  // An access-link cut strands its host: no switch has a route to it.
  net::Host* victim = ls.racks[0][0];
  net::Host* sibling = ls.racks[0][1];
  topo.set_link_pair_state(*victim, *ls.tors[0], false);
  for (const net::Switch* sw : topo.switches()) {
    EXPECT_EQ(sw->route(victim->id()), nullptr) << sw->name();
  }
  // Its rack sibling keeps its route, locally and across the fabric.
  EXPECT_EQ(ls.tors[0]->route(sibling->id()),
            topo.link_between(*ls.tors[0], *sibling));
  EXPECT_EQ(ls.tors[1]->route_width(sibling->id()), 2u);

  // The heal restores the stranded host's routes.
  topo.set_link_pair_state(*victim, *ls.tors[0], true);
  EXPECT_EQ(ls.tors[0]->route(victim->id()),
            topo.link_between(*ls.tors[0], *victim));
  EXPECT_EQ(ls.tors[1]->route_width(victim->id()), 2u);
}

TEST(Scenario, SpineLinkDownNarrowsEcmpAndKeepsConnectivity) {
  sim::Simulator sim;
  net::LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 2;
  cfg.spines = 2;
  auto ls = net::make_leaf_spine(sim, cfg);
  net::Topology& topo = *ls.topology;
  net::Host* remote = ls.racks[1][0];
  ASSERT_EQ(ls.tors[0]->route_width(remote->id()), 2u);

  // Cutting the tor0 <-> spine0 cable leaves tor0 one way up the fabric.
  topo.set_link_pair_state(*ls.tors[0], *ls.spines[0], false);
  EXPECT_EQ(ls.tors[0]->route_width(remote->id()), 1u);
  EXPECT_EQ(ls.tors[0]->route(remote->id()),
            topo.link_between(*ls.tors[0], *ls.spines[1]));

  // Traffic still crosses the fabric over the surviving spine.
  tcp::TcpFlow flow(sim, *ls.racks[0][0], *remote, 1,
                    std::make_unique<tcp::RenoCC>());
  sim::SimTime done = -1;
  flow.send_message(500'000, [&](sim::SimTime t) { done = t; });
  sim.run_until(sim::seconds(10));
  EXPECT_GT(done, 0) << "transfer did not survive the spine failover";
}

// ------------------------------------------------------- blackout survival

TEST(Scenario, FlowSurvivesBlackoutLongerThanMaxRto) {
  Rig rig(1);
  tcp::SenderConfig scfg;
  scfg.max_rto = sim::milliseconds(200);
  tcp::TcpFlow flow(rig.sim, *rig.d.left[0], *rig.d.right[0], 1,
                    std::make_unique<tcp::RenoCC>(), scfg);
  sim::SimTime done = -1;
  flow.send_message(2'000'000, [&](sim::SimTime t) { done = t; });

  // The bottleneck pair goes dark at 10 ms for ~3 s — 15x the RTO cap.
  scenario::ScenarioEngine engine(rig.sim, *rig.d.topology, rig.cluster);
  engine.install(scenario::Scenario{}
                     .link_down(sim::milliseconds(10), "swL", "swR")
                     .link_up(sim::seconds(3), "swL", "swR"));
  rig.sim.run_until(sim::seconds(10));

  ASSERT_GT(done, 0) << "flow never recovered from the blackout";
  EXPECT_EQ(engine.applied_events(), 2);
  EXPECT_EQ(engine.skipped_events(), 0);
  // Capped backoff keeps probing every max_rto: an uncapped doubler's next
  // probe after a 3 s outage would land past 4 s.
  EXPECT_LT(sim::to_seconds(done), 3.6);
  EXPECT_GE(flow.sender().stats().timeouts, 12);
  // The route rebuild at link-down time removed the routes across the cut,
  // so the RTO probes of the blackout die as routeless drops at the edge
  // switch — they never reach the dead link itself.
  EXPECT_GT(rig.d.left_switch->routeless_drops(), 0);
}

// ------------------------------------------------------------- job churn

TEST(Scenario, DepartureArrivalAndStragglerReplayDeterministically) {
  Rig rig;
  workload::Job* j0 =
      rig.add_job("j0", 0, 800'000, sim::milliseconds(5), 1000);
  workload::Job* j1 = rig.add_job("j1", 1, 800'000, sim::milliseconds(5), 10);

  scenario::Scenario s;
  s.straggler(0, "j1", 3, sim::milliseconds(20));
  s.job_departure(sim::milliseconds(80), "j0");
  s.job_arrival(sim::milliseconds(90), "j2", [](scenario::EngineContext& ctx) {
    const auto& hosts = ctx.topology().hosts();
    workload::JobSpec spec;
    spec.name = "j2";
    // Dumbbell host order is (hL0, hR0, hL1, ...): pair 2 is indices 4/5.
    spec.flows = workload::single_flow(
        static_cast<net::Host*>(hosts[4]), static_cast<net::Host*>(hosts[5]),
        800'000);
    spec.compute_time = sim::milliseconds(5);
    spec.max_iterations = 5;
    spec.cc = [] { return std::make_unique<tcp::RenoCC>(); };
    spec.start_time = ctx.simulator().now();
    ctx.cluster().add_job(spec)->start();
  });
  s.background_burst(sim::milliseconds(100), 0, 1, 400'000);

  scenario::ScenarioEngine engine(rig.sim, *rig.d.topology, rig.cluster);
  engine.install(s);
  rig.cluster.start_all();
  rig.sim.run_until(sim::seconds(5));

  EXPECT_EQ(engine.applied_events(), 4);
  // Departure froze j0 well short of its 1000-iteration budget.
  EXPECT_FALSE(j0->running());
  EXPECT_LT(j0->completed_iterations(), 20);
  EXPECT_GT(j0->completed_iterations(), 0);
  // The straggler stretched exactly the first three compute phases.
  ASSERT_EQ(j1->completed_iterations(), 10);
  const auto& rec = j1->iterations();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rec[i].iter_end - rec[i].comm_end, sim::milliseconds(25)) << i;
  }
  EXPECT_EQ(rec[3].iter_end - rec[3].comm_end, sim::milliseconds(5));
  // The arrival ran to completion on the run's own hosts.
  workload::Job* j2 = rig.cluster.find_job("j2");
  ASSERT_NE(j2, nullptr);
  EXPECT_EQ(j2->completed_iterations(), 5);
}

// --------------------------------------- forwarding-plane faults via engine

TEST(Scenario, BlackholeDropBurstAndRateRenegotiation) {
  Rig rig(1);
  tcp::TcpFlow flow(rig.sim, *rig.d.left[0], *rig.d.right[0], 1,
                    std::make_unique<tcp::RenoCC>());
  sim::SimTime done = -1;
  flow.send_message(3'000'000, [&](sim::SimTime t) { done = t; });

  scenario::ScenarioEngine engine(rig.sim, *rig.d.topology, rig.cluster);
  engine.install(scenario::Scenario{}
                     .blackhole(sim::milliseconds(10), "swL", "swR", true)
                     .blackhole(sim::milliseconds(60), "swL", "swR", false)
                     .drop_burst(sim::milliseconds(80), "swL", "swR", 0.05, 7)
                     .drop_burst(sim::milliseconds(120), "swL", "swR", 0.0)
                     .link_rate(sim::milliseconds(150), "swL", "swR", 5e8));
  rig.sim.run_until(sim::seconds(30));

  EXPECT_EQ(engine.applied_events(), 5);
  ASSERT_GT(done, 0) << "flow did not survive blackhole + drop burst";
  // The blackhole kept routes pointing at the link while it ate packets.
  EXPECT_GT(rig.d.bottleneck->fault_drops(), 0);
  EXPECT_FALSE(rig.d.bottleneck->blackhole());
  EXPECT_DOUBLE_EQ(rig.d.bottleneck->rate_bps(), 5e8);
  EXPECT_DOUBLE_EQ(rig.d.bottleneck_reverse->rate_bps(), 5e8);
}

// ------------------------------------------------------- input validation

/// What install() throws for `s` on a 1 + 1 dumbbell ("" if it accepts it).
std::string install_error(const scenario::Scenario& s) {
  Rig rig(1);
  scenario::ScenarioEngine engine(rig.sim, *rig.d.topology, rig.cluster);
  try {
    engine.install(s);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Scenario, InstallRejectsUnknownNode) {
  EXPECT_EQ(install_error(scenario::Scenario{}.link_down(
                sim::milliseconds(40), "swL", "swX")),
            "scenario link_down at 40000000 ns: unknown node 'swX'");
}

TEST(Scenario, InstallRejectsNonAdjacentPair) {
  // Hosts hL0 and hR0 sit behind different switches.
  EXPECT_EQ(install_error(scenario::Scenario{}.blackhole(
                sim::milliseconds(5), "hL0", "hR0", true)),
            "scenario blackhole_on at 5000000 ns: 'hL0' and 'hR0' are not "
            "adjacent");
}

TEST(Scenario, InstallRejectsNonPositiveLinkRate) {
  EXPECT_EQ(install_error(scenario::Scenario{}.link_rate(
                sim::milliseconds(7), "swL", "swR", 0.0)),
            "scenario link_rate at 7000000 ns: rate_bps must be > 0, got 0");
}

TEST(Scenario, InstallRejectsDropProbabilityOutsideUnitRange) {
  EXPECT_EQ(install_error(scenario::Scenario{}.drop_burst(
                sim::milliseconds(9), "swL", "swR", 1.5)),
            "scenario drop_burst_on at 9000000 ns: probability must be in "
            "[0, 1], got 1.5");
}

TEST(Scenario, InstallRejectsBackgroundHostOutOfRange) {
  EXPECT_EQ(install_error(scenario::Scenario{}.background_burst(
                sim::milliseconds(3), 0, 2, 100'000)),
            "scenario background_burst at 3000000 ns: host index 2 is "
            "outside [0, 2)");
}

// ----------------------------------------------- campaign determinism

/// One faulted run: jobs + flap + drop burst + churn, reported as CSV rows.
void faulted_run(std::size_t run_index, std::uint64_t seed,
                 runner::CsvSink& csv) {
  Rig rig;
  rig.add_job("j0", 0, 600'000, sim::milliseconds(5), 40);
  rig.add_job("j1", 1, 600'000, sim::milliseconds(5), 40);

  scenario::Scenario s;
  s.link_down(sim::milliseconds(40), "swL", "swR");
  s.link_up(sim::milliseconds(120), "swL", "swR");
  s.drop_burst(sim::milliseconds(200), "swL", "swR", 0.02, seed);
  s.drop_burst(sim::milliseconds(400), "swL", "swR", 0.0);
  s.straggler(sim::milliseconds(300), "j1", 2, sim::milliseconds(10));
  s.background_burst(sim::milliseconds(350), 0, 1, 300'000);

  scenario::ScenarioEngine engine(rig.sim, *rig.d.topology, rig.cluster);
  engine.install(s);
  rig.cluster.start_all();
  rig.sim.run_until(sim::seconds(20));

  for (std::size_t j = 0; j < rig.cluster.job_count(); ++j) {
    const workload::Job* job = rig.cluster.job(j);
    csv.append(run_index,
               std::vector<double>{
                   static_cast<double>(run_index), static_cast<double>(j),
                   static_cast<double>(job->completed_iterations()),
                   sim::to_seconds(job->iterations().back().iter_end),
                   static_cast<double>(engine.applied_events())});
  }
}

std::string faulted_campaign(int threads) {
  runner::CsvSink csv({"run", "job", "iterations", "end_s", "events"});
  std::vector<std::uint64_t> seeds = {11, 12, 13, 14, 15, 16};
  runner::CampaignOptions opts;
  opts.threads = threads;
  runner::run_campaign<std::uint64_t, int>(
      seeds,
      [&](const std::uint64_t& seed, std::size_t i) {
        faulted_run(i, seed, csv);
        return 0;
      },
      opts);
  return csv.serialize();
}

TEST(Scenario, FaultedCampaignByteIdenticalAcrossThreadCounts) {
  const std::string serial = faulted_campaign(1);
  EXPECT_NE(serial.find("\n5,"), std::string::npos);
  const std::string parallel = faulted_campaign(4);
  EXPECT_EQ(parallel, serial)
      << "scenario replay must not depend on campaign scheduling";
}

}  // namespace
}  // namespace mltcp
