// Flow-level backend tests: the max-min allocation must reproduce the
// analytic fair shares (weighted by MLTCP's aggressiveness function), route
// resolution must agree with the packet backend's ECMP hash, faults must
// stall/derate/reroute fluid flows the way they kill packets, channels must
// keep connection FIFO semantics, campaign output must stay byte-identical
// across thread counts, a small-topology run must land within a stated
// tolerance of the packet backend, and periodic jobs on a dumbbell must
// follow the §4 fluid dynamics (Eq. 3 shift, interleaving, fair-share
// overlap) that the convergence and noise-bound benches build on, and the
// incremental solver must keep its per-transfer work on the 256-host
// leaf-spine under a ceiling that a full recompute exceeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/dumbbell_run.hpp"
#include "analysis/metrics.hpp"
#include "analysis/shift.hpp"
#include "core/aggressiveness.hpp"
#include "core/mltcp.hpp"
#include "flowsim/flow_simulator.hpp"
#include "net/topology.hpp"
#include "pdes/partition.hpp"
#include "pdes/sharded_runner.hpp"
#include "runner/campaign.hpp"
#include "runner/sinks.hpp"
#include "scenario/engine.hpp"
#include "scenario/scenario.hpp"
#include "sim/indexed_heap.hpp"
#include "sim/simulator.hpp"
#include "tcp/reno.hpp"
#include "telemetry/collect.hpp"
#include "telemetry/metrics.hpp"
#include "traffic/jobs.hpp"
#include "traffic/pattern.hpp"
#include "traffic/source.hpp"
#include "workload/cluster.hpp"

namespace mltcp {
namespace {

tcp::CcFactory reno() {
  return [] { return std::make_unique<tcp::RenoCC>(); };
}

/// Dumbbell world with the flow-level backend installed.
struct FluidRig {
  sim::Simulator sim;
  net::Dumbbell d;
  std::unique_ptr<flowsim::FlowSimulator> fs;
  workload::Cluster cluster{sim};

  explicit FluidRig(int hosts_per_side = 2,
                    flowsim::FlowSimConfig cfg = {}) {
    net::DumbbellConfig dc;
    dc.hosts_per_side = hosts_per_side;
    d = net::make_dumbbell(sim, dc);
    fs = std::make_unique<flowsim::FlowSimulator>(sim, *d.topology, cfg);
    cluster.set_backend(fs.get());
  }
};

// ------------------------------------------------------------ max-min core

TEST(FlowsimMaxMin, EqualShareOnSharedBottleneck) {
  FluidRig rig;
  workload::Channel* a =
      rig.cluster.add_channel({rig.d.left[0], rig.d.right[0], 0}, reno());
  workload::Channel* b =
      rig.cluster.add_channel({rig.d.left[1], rig.d.right[1], 0}, reno());

  const std::int64_t bytes = 10'000'000;
  sim::SimTime done_a = -1;
  sim::SimTime done_b = -1;
  a->send_message(bytes, [&](sim::SimTime t) { done_a = t; });
  b->send_message(bytes, [&](sim::SimTime t) { done_b = t; });
  rig.sim.run_until(sim::seconds(5));

  ASSERT_GT(done_a, 0);
  ASSERT_GT(done_b, 0);
  // Two equal flows split the 1 Gb/s bottleneck: 10 MB at 0.5 Gb/s = 160 ms
  // (plus microseconds of propagation).
  const double expect = 8.0 * static_cast<double>(bytes) / 0.5e9;
  EXPECT_NEAR(sim::to_seconds(done_a), expect, 0.01 * expect);
  EXPECT_NEAR(sim::to_seconds(done_b), expect, 0.01 * expect);
}

TEST(FlowsimMaxMin, NonBottleneckedFlowsRunAtAccessRate) {
  // Opposite directions: each flow has its own bottleneck direction, so
  // both run at the full 1 Gb/s.
  FluidRig rig;
  workload::Channel* fwd =
      rig.cluster.add_channel({rig.d.left[0], rig.d.right[0], 0}, reno());
  workload::Channel* rev =
      rig.cluster.add_channel({rig.d.right[1], rig.d.left[1], 0}, reno());
  sim::SimTime done_f = -1;
  sim::SimTime done_r = -1;
  fwd->send_message(10'000'000, [&](sim::SimTime t) { done_f = t; });
  rev->send_message(10'000'000, [&](sim::SimTime t) { done_r = t; });
  rig.sim.run_until(sim::seconds(5));
  const double expect = 8.0 * 10'000'000 / 1e9;
  ASSERT_GT(done_f, 0);
  ASSERT_GT(done_r, 0);
  EXPECT_NEAR(sim::to_seconds(done_f), expect, 0.01 * expect);
  EXPECT_NEAR(sim::to_seconds(done_r), expect, 0.01 * expect);
}

TEST(FlowsimMaxMin, WeightedShareFollowsAggressivenessFunction) {
  // A constant-F MLTCP channel against a plain one: the fluid allocation
  // must split the bottleneck F : 1.
  FluidRig rig;
  auto f3 = std::make_shared<core::CustomAggressiveness>(
      [](double) { return 3.0; }, "const3");
  workload::Channel* heavy = rig.cluster.add_channel(
      {rig.d.left[0], rig.d.right[0], 0},
      core::mltcp_reno_factory(core::MltcpConfig{}, f3));
  workload::Channel* light =
      rig.cluster.add_channel({rig.d.left[1], rig.d.right[1], 0}, reno());

  heavy->send_message(50'000'000, [](sim::SimTime) {});
  light->send_message(50'000'000, [](sim::SimTime) {});
  rig.sim.run_until(sim::milliseconds(50));

  const auto rates = rig.fs->current_rates();
  ASSERT_EQ(rates.size(), 2u);
  const double heavy_rate =
      rates[0].flow == heavy->id() ? rates[0].rate_bps : rates[1].rate_bps;
  const double light_rate =
      rates[0].flow == light->id() ? rates[0].rate_bps : rates[1].rate_bps;
  EXPECT_NEAR(heavy_rate, 0.75e9, 1e6);
  EXPECT_NEAR(light_rate, 0.25e9, 1e6);
}

TEST(FlowsimMaxMin, LinearRampRaisesWeightWithProgress) {
  // The paper's linear F: a flow further into its message carries a higher
  // weight. Start one flow half a message ahead of the other and compare
  // the weights the allocator assigns.
  FluidRig rig;
  const core::MltcpConfig cfg;
  workload::Channel* ahead = rig.cluster.add_channel(
      {rig.d.left[0], rig.d.right[0], 0}, core::mltcp_reno_factory(cfg));
  workload::Channel* behind = rig.cluster.add_channel(
      {rig.d.left[1], rig.d.right[1], 0}, core::mltcp_reno_factory(cfg));

  ahead->send_message(10'000'000, [](sim::SimTime) {});
  rig.sim.run_until(sim::milliseconds(60));  // ~60% through at full rate.
  behind->send_message(10'000'000, [](sim::SimTime) {});
  rig.sim.run_until(sim::milliseconds(80));

  const auto rates = rig.fs->current_rates();
  ASSERT_EQ(rates.size(), 2u);
  const flowsim::FlowRate& ra =
      rates[0].flow == ahead->id() ? rates[0] : rates[1];
  const flowsim::FlowRate& rb =
      rates[0].flow == behind->id() ? rates[0] : rates[1];
  EXPECT_GT(ra.weight, rb.weight)
      << "F(bytes_ratio) must favor the flow closer to completion";
  EXPECT_GT(ra.rate_bps, rb.rate_bps);
}

TEST(FlowsimMaxMin, ChannelIsFifoLikeAConnection) {
  FluidRig rig;
  workload::Channel* ch =
      rig.cluster.add_channel({rig.d.left[0], rig.d.right[0], 0}, reno());
  std::vector<int> order;
  sim::SimTime first = -1;
  sim::SimTime second = -1;
  ch->send_message(10'000'000, [&](sim::SimTime t) {
    order.push_back(1);
    first = t;
  });
  ch->send_message(10'000'000, [&](sim::SimTime t) {
    order.push_back(2);
    second = t;
  });
  rig.sim.run_until(sim::seconds(5));
  ASSERT_EQ(order, (std::vector<int>{1, 2}));
  // Sole flow on the bottleneck: each message serializes at 1 Gb/s, the
  // second strictly after the first.
  const double one = 8.0 * 10'000'000 / 1e9;
  EXPECT_NEAR(sim::to_seconds(first), one, 0.01 * one);
  EXPECT_NEAR(sim::to_seconds(second), 2 * one, 0.01 * one);
}

TEST(FlowsimMaxMin, ChannelRejectsEmptyAndNegativeMessages) {
  // Same contract as the packet backend's sender: a message must carry
  // bytes, and a rejected post names the flow and the size.
  FluidRig rig;
  workload::Channel* ch =
      rig.cluster.add_channel({rig.d.left[0], rig.d.right[0], 0}, reno());
  const std::string flow = "flow " + std::to_string(ch->id());
  for (const std::int64_t bytes : {std::int64_t{0}, std::int64_t{-5}}) {
    try {
      ch->send_message(bytes, [](sim::SimTime) {});
      ADD_FAILURE() << bytes << " bytes accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(flow), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(bytes) + " bytes"), std::string::npos)
          << what;
    }
  }
  EXPECT_EQ(rig.fs->stats().messages_posted, 0);
  sim::SimTime done = -1;
  ch->send_message(1'000'000, [&](sim::SimTime t) { done = t; });
  rig.sim.run_until(sim::seconds(1));
  EXPECT_GT(done, 0);
}

// --------------------------------------------------------------- ECMP parity

TEST(FlowsimEcmp, RouteChoiceMatchesPacketBackendHash) {
  // Blackhole one tor->spine link: exactly the flows whose packet-backend
  // ECMP hash (Switch::route_for_flow) picks that spine must stall.
  sim::Simulator sim;
  net::LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 2;
  cfg.spines = 2;
  auto ls = net::make_leaf_spine(sim, cfg);
  flowsim::FlowSimulator fs(sim, *ls.topology);
  workload::Cluster cluster(sim);
  cluster.set_backend(&fs);

  net::Host* src = ls.racks[0][0];
  net::Host* dst = ls.racks[1][0];
  net::Link* poisoned = ls.topology->link_between(*ls.tors[0], *ls.spines[0]);
  ASSERT_NE(poisoned, nullptr);
  poisoned->set_blackhole(true);
  ls.topology->notify_changed();

  std::vector<workload::Channel*> chans;
  std::vector<bool> done;
  for (int i = 0; i < 8; ++i) {
    workload::Channel* ch = cluster.add_channel({src, dst, 0}, reno());
    const std::size_t idx = done.size();
    done.push_back(false);
    ch->send_message(1'000'000, [&done, idx](sim::SimTime) {
      done[idx] = true;
    });
    chans.push_back(ch);
  }
  sim.run_until(sim::seconds(10));

  int stalled = 0;
  for (std::size_t i = 0; i < chans.size(); ++i) {
    const net::Link* packet_choice =
        ls.tors[0]->route_for_flow(dst->id(), chans[i]->id());
    if (packet_choice == poisoned) {
      ++stalled;
      EXPECT_FALSE(done[i]) << "flow " << chans[i]->id()
                            << " hashes into the blackhole and must stall";
    } else {
      EXPECT_TRUE(done[i]) << "flow " << chans[i]->id()
                           << " avoids the blackhole and must finish";
    }
  }
  EXPECT_GT(stalled, 0) << "hash never picked the poisoned spine (test vacuous)";
  EXPECT_LT(stalled, 8) << "hash always picked the poisoned spine";
}

// -------------------------------------------------------------------- faults

TEST(FlowsimFaults, BlackholeStallsAndResumeCompletes) {
  FluidRig rig;
  workload::Channel* ch =
      rig.cluster.add_channel({rig.d.left[0], rig.d.right[0], 0}, reno());
  sim::SimTime done = -1;
  ch->send_message(10'000'000, [&](sim::SimTime t) { done = t; });

  rig.sim.run_until(sim::milliseconds(20));  // ~25% transferred.
  rig.d.bottleneck->set_blackhole(true);
  rig.d.topology->notify_changed();
  rig.sim.run_until(sim::milliseconds(500));
  EXPECT_EQ(done, -1) << "flow completed through a blackholed bottleneck";
  EXPECT_GE(rig.fs->stats().stalls, 1);

  rig.d.bottleneck->set_blackhole(false);
  rig.d.topology->notify_changed();
  rig.sim.run_until(sim::seconds(5));
  ASSERT_GT(done, 0);
  // 80 ms of transfer work + the 480 ms stall window.
  const double expect = 0.08 + 0.48;
  EXPECT_NEAR(sim::to_seconds(done), expect, 0.01);
}

TEST(FlowsimFaults, DropBurstDeratesCapacity) {
  FluidRig rig;
  workload::Channel* ch =
      rig.cluster.add_channel({rig.d.left[0], rig.d.right[0], 0}, reno());
  sim::SimTime done = -1;
  rig.d.bottleneck->set_fault_drop(0.5, 7);
  rig.d.topology->notify_changed();
  ch->send_message(10'000'000, [&](sim::SimTime t) { done = t; });
  rig.sim.run_until(sim::seconds(5));
  ASSERT_GT(done, 0);
  // Half the packets die: the goodput model halves the link.
  const double expect = 8.0 * 10'000'000 / 0.5e9;
  EXPECT_NEAR(sim::to_seconds(done), expect, 0.01 * expect);
}

TEST(FlowsimFaults, LinkDownReroutesOverSurvivingSpine) {
  sim::Simulator sim;
  net::LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 2;
  cfg.spines = 2;
  auto ls = net::make_leaf_spine(sim, cfg);
  flowsim::FlowSimulator fs(sim, *ls.topology);
  workload::Cluster cluster(sim);
  cluster.set_backend(&fs);

  // Find a flow id the hash sends over spine0, then cut spine0 mid-flight:
  // the incremental route repair must push it onto spine1 and it must still
  // complete.
  net::Host* src = ls.racks[0][0];
  net::Host* dst = ls.racks[1][0];
  net::Link* doomed = ls.topology->link_between(*ls.tors[0], *ls.spines[0]);
  workload::Channel* victim = nullptr;
  sim::SimTime done = -1;
  for (int i = 0; i < 8 && victim == nullptr; ++i) {
    workload::Channel* ch = cluster.add_channel({src, dst, 0}, reno());
    if (ls.tors[0]->route_for_flow(dst->id(), ch->id()) == doomed) {
      victim = ch;
    }
  }
  ASSERT_NE(victim, nullptr) << "no flow id hashed onto spine0";
  victim->send_message(50'000'000, [&](sim::SimTime t) { done = t; });
  sim.run_until(sim::milliseconds(10));
  ls.topology->set_link_pair_state(*ls.tors[0], *ls.spines[0], false);
  sim.run_until(sim::seconds(10));
  ASSERT_GT(done, 0) << "flow did not survive the spine failover";
  EXPECT_GE(fs.stats().reroutes, 1);
  EXPECT_EQ(fs.stats().stalls, 0)
      << "repair left a live path; the flow must not stall";
}

// ------------------------------------------------------ workload integration

TEST(FlowsimWorkload, TrainingJobCompletesIterations) {
  FluidRig rig;
  workload::JobSpec spec;
  spec.name = "train";
  spec.flows = {{rig.d.left[0], rig.d.right[0], 1'000'000},
                {rig.d.left[1], rig.d.right[1], 1'000'000}};
  spec.compute_time = sim::milliseconds(5);
  spec.max_iterations = 10;
  spec.cc = reno();
  workload::Job* job = rig.cluster.add_job(spec);
  rig.cluster.start_all();
  rig.sim.run_until(sim::seconds(5));

  EXPECT_EQ(job->completed_iterations(), 10);
  // Comm phase: two 1 MB flows split the bottleneck, 16 ms each.
  const auto comm = job->comm_times_seconds();
  ASSERT_FALSE(comm.empty());
  EXPECT_NEAR(comm.front(), 0.016, 0.002);
  EXPECT_EQ(rig.fs->stats().messages_completed, 20);
}

TEST(FlowsimWorkload, ServingJobFanoutOnFluidBackend) {
  FluidRig rig(4);
  traffic::ServingConfig cfg;
  cfg.frontend = rig.d.left[0];
  cfg.backends = {rig.d.right[0], rig.d.right[1], rig.d.right[2]};
  cfg.requests_per_second = 200.0;
  cfg.fanout = 2;
  cfg.stop_time = sim::milliseconds(500);
  cfg.cc = reno();
  traffic::ServingJob serving(rig.sim, rig.cluster, cfg);
  serving.start();
  rig.sim.run_until(sim::seconds(5));
  EXPECT_GT(serving.requests_issued(), 50u);
  EXPECT_EQ(serving.requests_completed(), serving.requests_issued());
}

// ---------------------------------------------------------------- determinism

/// One faulted flowsim run reported as CSV rows (mirrors the scenario
/// suite's faulted_run, with the fluid backend installed).
void fluid_faulted_run(std::size_t run_index, std::uint64_t seed,
                       runner::CsvSink& csv) {
  FluidRig rig;
  workload::JobSpec spec;
  spec.name = "j0";
  spec.flows = {{rig.d.left[0], rig.d.right[0], 600'000}};
  spec.compute_time = sim::milliseconds(5);
  spec.max_iterations = 40;
  spec.cc = core::mltcp_reno_factory();
  rig.cluster.add_job(spec);

  scenario::Scenario s;
  s.link_down(sim::milliseconds(40), "swL", "swR");
  s.link_up(sim::milliseconds(120), "swL", "swR");
  s.drop_burst(sim::milliseconds(200), "swL", "swR", 0.02, seed);
  s.drop_burst(sim::milliseconds(400), "swL", "swR", 0.0);
  s.background_burst(sim::milliseconds(350), 0, 1, 300'000);

  scenario::ScenarioEngine engine(rig.sim, *rig.d.topology, rig.cluster);
  engine.install(s);
  rig.cluster.start_all();
  rig.sim.run_until(sim::seconds(20));

  const workload::Job* job = rig.cluster.job(0);
  ASSERT_GT(job->completed_iterations(), 0);
  csv.append(run_index,
             std::vector<double>{
                 static_cast<double>(run_index),
                 static_cast<double>(job->completed_iterations()),
                 sim::to_seconds(job->iterations().back().iter_end),
                 static_cast<double>(rig.fs->stats().messages_completed),
                 static_cast<double>(rig.fs->stats().recomputes),
                 static_cast<double>(engine.applied_events())});
}

std::string fluid_faulted_campaign(int threads) {
  runner::CsvSink csv(
      {"run", "iterations", "end_s", "messages", "recomputes", "events"});
  std::vector<std::uint64_t> seeds = {21, 22, 23, 24, 25, 26};
  runner::CampaignOptions opts;
  opts.threads = threads;
  runner::run_campaign<std::uint64_t, int>(
      seeds,
      [&](const std::uint64_t& seed, std::size_t i) {
        fluid_faulted_run(i, seed, csv);
        return 0;
      },
      opts);
  return csv.serialize();
}

TEST(FlowsimDeterminism, FaultedCampaignByteIdenticalAcrossThreadCounts) {
  const std::string serial = fluid_faulted_campaign(1);
  EXPECT_NE(serial.find("\n5,"), std::string::npos);
  const std::string parallel = fluid_faulted_campaign(4);
  EXPECT_EQ(parallel, serial)
      << "fluid allocation must not depend on campaign scheduling";
}

// ------------------------------------------------------ incremental solver

/// Bit-exact trace of a faulted run: iteration end times and transfer FCTs
/// as raw IEEE-754 bit patterns plus the backend's message, recompute,
/// reroute and stall counters. Any arithmetic divergence between the
/// incremental and full-recompute solvers shows up as a byte difference.
struct FaultedRun {
  std::string trace;
  flowsim::FlowSimStats stats;
};

FaultedRun faulted_run(const workload::Cluster& cluster,
                       const std::vector<double>& fcts,
                       const flowsim::FlowSimStats& st) {
  std::string out;
  char buf[96];
  const auto append_bits = [&](double seconds) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &seconds, sizeof bits);
    std::snprintf(buf, sizeof buf, "%016" PRIx64 "\n", bits);
    out += buf;
  };
  for (std::size_t j = 0; j < cluster.job_count(); ++j) {
    for (const auto& it : cluster.job(j)->iterations()) {
      append_bits(sim::to_seconds(it.iter_end));
    }
  }
  for (const double fct : fcts) append_bits(fct);
  std::snprintf(buf, sizeof buf,
                "msgs=%lld recomputes=%lld reroutes=%lld stalls=%lld\n",
                static_cast<long long>(st.messages_completed),
                static_cast<long long>(st.recomputes),
                static_cast<long long>(st.reroutes),
                static_cast<long long>(st.stalls));
  out += buf;
  return FaultedRun{out, st};
}

/// One two-flow MLTCP job on a dumbbell whose single bottleneck is cut,
/// healed and drop-burst.
FaultedRun faulted_dumbbell_run(bool full_recompute) {
  flowsim::FlowSimConfig cfg;
  cfg.full_recompute = full_recompute;
  FluidRig rig(2, cfg);
  workload::JobSpec spec;
  spec.name = "j0";
  spec.flows = {{rig.d.left[0], rig.d.right[0], 600'000},
                {rig.d.left[1], rig.d.right[1], 600'000}};
  spec.compute_time = sim::milliseconds(5);
  spec.max_iterations = 40;
  spec.cc = core::mltcp_reno_factory();
  rig.cluster.add_job(spec);

  scenario::Scenario s;
  s.link_down(sim::milliseconds(40), "swL", "swR");
  s.link_up(sim::milliseconds(120), "swL", "swR");
  s.drop_burst(sim::milliseconds(200), "swL", "swR", 0.02, 23);
  s.drop_burst(sim::milliseconds(400), "swL", "swR", 0.0);
  s.background_burst(sim::milliseconds(350), 0, 1, 300'000);

  scenario::ScenarioEngine engine(rig.sim, *rig.d.topology, rig.cluster);
  engine.install(s);
  rig.cluster.start_all();
  rig.sim.run_until(sim::seconds(20));
  return faulted_run(rig.cluster, {}, rig.fs->stats());
}

/// Six two-flow MLTCP jobs and Poisson Reno transfers on a 4x4x2
/// leaf-spine, where the topology passes reroute channels onto the
/// surviving spine and stall the ones left without a path: ToR-spine cuts
/// that heal, a drop burst, a one-way blackhole and a host-uplink cut.
FaultedRun faulted_leaf_spine_run(bool full_recompute) {
  sim::Simulator sim;
  net::LeafSpineConfig lc;
  lc.racks = 4;
  lc.hosts_per_rack = 4;
  lc.spines = 2;
  lc.host_rate_bps = 4e9;
  lc.fabric_rate_bps = 1e9;
  auto ls = net::make_leaf_spine(sim, lc);
  flowsim::FlowSimConfig cfg;
  cfg.full_recompute = full_recompute;
  flowsim::FlowSimulator fs(sim, *ls.topology, cfg);
  workload::Cluster cluster(sim);
  cluster.set_backend(&fs);

  for (int i = 0; i < 6; ++i) {
    const auto r = static_cast<std::size_t>(i % 4);
    const auto h = static_cast<std::size_t>(i / 4);
    workload::JobSpec spec;
    spec.name = "j" + std::to_string(i);
    spec.flows = {{ls.racks[r][h], ls.racks[(r + 1) % 4][2 + h], 500'000},
                  {ls.racks[(r + 2) % 4][h], ls.racks[(r + 3) % 4][2 + h],
                   500'000}};
    spec.compute_time = sim::milliseconds(5);
    spec.max_iterations = 1000;
    spec.cc = core::mltcp_reno_factory();
    cluster.add_job(spec);
  }

  std::vector<net::Host*> hosts;
  for (const auto& rack : ls.racks) {
    hosts.insert(hosts.end(), rack.begin(), rack.end());
  }
  traffic::TrafficSource source(
      sim, cluster, hosts, traffic::SourceOptions{reno(), {}, {}});
  traffic::TrafficConfig tc;
  tc.pattern = traffic::Pattern::kPoisson;
  tc.size_dist = traffic::SizeDist::kPareto;
  tc.mean_bytes = 40'000;
  tc.flows_per_second = 2000.0;
  tc.stop = sim::seconds(1);
  tc.seed = 17;
  source.install(tc);

  scenario::Scenario s;
  s.link_down(sim::milliseconds(50), "tor0", "spine0");
  s.link_up(sim::milliseconds(150), "tor0", "spine0");
  s.drop_burst(sim::milliseconds(200), "tor1", "spine0", 0.1, 5);
  s.link_down(sim::milliseconds(250), "tor2", "spine1");
  s.link_up(sim::milliseconds(330), "tor2", "spine1");
  s.drop_burst(sim::milliseconds(380), "tor1", "spine0", 0.0);
  s.blackhole(sim::milliseconds(450), "spine1", "tor3", true);
  s.blackhole(sim::milliseconds(560), "spine1", "tor3", false);
  s.link_down(sim::milliseconds(650), "h0_0", "tor0");
  s.link_up(sim::milliseconds(760), "h0_0", "tor0");

  scenario::ScenarioEngine engine(sim, *ls.topology, cluster);
  engine.install(s);
  cluster.start_all();
  sim.run_until(sim::milliseconds(1500));
  return faulted_run(cluster, source.completed_fcts_seconds(), fs.stats());
}

TEST(FlowsimIncremental, FullRecomputeModeBitIdenticalOnFaultedRun) {
  const char* why =
      "the dirty-set solver must reproduce the reference global waterfill "
      "bit-for-bit, faults included";
  EXPECT_EQ(faulted_dumbbell_run(false).trace,
            faulted_dumbbell_run(true).trace)
      << why;

  const FaultedRun incremental = faulted_leaf_spine_run(false);
  const FaultedRun full = faulted_leaf_spine_run(true);
  EXPECT_EQ(incremental.trace, full.trace) << why;
  // The leaf-spine input must exercise what the dumbbell cannot.
  EXPECT_GT(incremental.stats.reroutes, 0);
  EXPECT_GT(incremental.stats.stalls, 0);
  EXPECT_GT(incremental.stats.frozen_skips, 0);
  EXPECT_EQ(full.stats.frozen_skips, 0);
}

TEST(FlowsimIncremental, RandomizedDifferentialMatchesReferenceWaterfill) {
  // >= 10k mixed arrival/completion/fault/weight-refresh events on a
  // leaf-spine fabric with mixed Reno/MLTCP channels; after every batch of
  // perturbations the incremental allocation must equal an independent
  // from-scratch waterfill (FlowSimulator::reference_rates) to 1e-9
  // relative — catching both dirty-set under-marking and stale caches.
  sim::Simulator sim;
  net::LeafSpineConfig cfg;
  cfg.racks = 4;
  cfg.hosts_per_rack = 4;
  cfg.spines = 2;
  cfg.host_rate_bps = 4e9;
  cfg.fabric_rate_bps = 1e9;
  auto ls = net::make_leaf_spine(sim, cfg);
  flowsim::FlowSimulator fs(sim, *ls.topology);
  workload::Cluster cluster(sim);
  cluster.set_backend(&fs);

  std::vector<net::Host*> hosts;
  for (const auto& rack : ls.racks) {
    hosts.insert(hosts.end(), rack.begin(), rack.end());
  }
  std::mt19937_64 rng(99);
  std::vector<workload::Channel*> chans;
  for (int i = 0; i < 48; ++i) {
    net::Host* src = hosts[rng() % hosts.size()];
    net::Host* dst = hosts[rng() % hosts.size()];
    while (dst == src) dst = hosts[rng() % hosts.size()];
    chans.push_back(cluster.add_channel(
        {src, dst, 0},
        i % 2 == 0 ? core::mltcp_reno_factory() : reno()));
  }
  std::vector<net::Link*> fabric;
  for (net::Switch* tor : ls.tors) {
    for (net::Switch* spine : ls.spines) {
      fabric.push_back(ls.topology->link_between(*tor, *spine));
    }
  }

  auto compare = [&] {
    const auto cur = fs.current_rates();
    const auto ref = fs.reference_rates();
    ASSERT_EQ(cur.size(), ref.size());
    for (std::size_t i = 0; i < cur.size(); ++i) {
      ASSERT_EQ(cur[i].flow, ref[i].flow);
      const double tol = 1e-9 * std::max(1.0, std::abs(ref[i].rate_bps));
      ASSERT_NEAR(cur[i].rate_bps, ref[i].rate_bps, tol)
          << "flow " << cur[i].flow << " diverged from the reference "
          << "waterfill after step";
    }
  };

  sim::SimTime now = 0;
  int step = 0;
  bool faulted = false;
  while (fs.stats().messages_posted + fs.stats().messages_completed <
         10'000) {
    ++step;
    const int bursts = 1 + static_cast<int>(rng() % 3);
    for (int b = 0; b < bursts; ++b) {
      const std::int64_t bytes =
          20'000 + static_cast<std::int64_t>(rng() % 180'000);
      chans[rng() % chans.size()]->send_message(bytes, [](sim::SimTime) {});
    }
    if (rng() % 48 == 0) {
      net::Link* l = fabric[rng() % fabric.size()];
      l->set_blackhole(!faulted);
      ls.topology->notify_changed();
      faulted = !faulted;
    } else if (rng() % 48 == 0) {
      net::Link* l = fabric[rng() % fabric.size()];
      l->set_fault_drop(faulted ? 0.0 : 0.3, 7);
      ls.topology->notify_changed();
    }
    now += sim::microseconds(200 + static_cast<sim::SimTime>(rng() % 2000));
    sim.run_until(now);
    if (step % 16 == 0) compare();
  }
  compare();
  EXPECT_GE(fs.stats().messages_posted + fs.stats().messages_completed,
            10'000u);
  EXPECT_GT(fs.stats().frozen_skips, 0)
      << "the dirty-set never skipped a frozen channel — the incremental "
         "path is not actually incremental";
}

// ---------------------------------------------------------- drain-event heap

/// The drain index's entry shape: (due instant, channel ordinal).
struct DrainEntry {
  sim::SimTime when;
  std::uint32_t id;
  friend bool operator<(const DrainEntry& a, const DrainEntry& b) {
    return a.when < b.when || (a.when == b.when && a.id < b.id);
  }
};

TEST(FlowsimHeap, RandomizedDifferentialAgainstOrderedSet) {
  // The drain index must agree with an ordered-set reference across a long
  // random mix of insert / re-key / remove / pop-min — the exact operation
  // set reallocate() and on_timer() drive it with.
  sim::IndexedMinHeap4<DrainEntry> heap;
  // Last key pushed per id; the reference holds (key, id) for queued ids.
  std::vector<sim::SimTime> key(512, 0);
  std::set<std::pair<sim::SimTime, std::uint32_t>> ref;

  const auto pop_and_check = [&] {
    ASSERT_FALSE(ref.empty());
    const DrainEntry top = heap.top();
    // (when, id) is a total order, so the minimum is exact.
    ASSERT_EQ(top.when, ref.begin()->first);
    ASSERT_EQ(top.id, ref.begin()->second);
    heap.pop();
    ref.erase(ref.begin());
  };

  std::mt19937_64 rng(1234);
  for (int op = 0; op < 20'000; ++op) {
    const auto id = static_cast<std::uint32_t>(rng() % key.size());
    switch (rng() % 4) {
      case 0:
      case 1: {  // Insert-or-rekey (the dominant operation).
        const auto k = static_cast<sim::SimTime>(rng() % 1'000'000);
        ref.erase({key[id], id});  // no-op unless queued
        heap.push({k, id});
        key[id] = k;
        ref.insert({k, id});
        break;
      }
      case 2:  // Remove (drain transition / completion).
        ref.erase({key[id], id});
        heap.remove(id);
        break;
      case 3:  // Pop-min (due processing).
        if (!heap.empty()) pop_and_check();
        break;
    }
    ASSERT_EQ(heap.size(), ref.size());
    ASSERT_EQ(heap.contains(id), ref.count({key[id], id}) > 0);
  }
  while (!heap.empty()) pop_and_check();
  EXPECT_TRUE(ref.empty());
}

// ------------------------------------------------------- PDES composition

/// Quick Poisson matrix on the fluid backend, serial or under the
/// cooperative sharded runner; returns the completed-FCT vector.
std::vector<double> sharded_poisson_fcts(int shards) {
  sim::Simulator sim;
  net::LeafSpineConfig cfg;
  cfg.racks = 4;
  cfg.hosts_per_rack = 4;
  cfg.spines = 2;
  cfg.host_rate_bps = 4e9;
  cfg.fabric_rate_bps = 1e9;
  auto ls = net::make_leaf_spine(sim, cfg);
  flowsim::FlowSimulator fs(sim, *ls.topology);
  workload::Cluster cluster(sim);
  cluster.set_backend(&fs);

  std::unique_ptr<pdes::ShardedRunner> runner;
  pdes::Partition part;
  if (shards > 1) {
    pdes::PartitionOptions popts;
    popts.shards = shards;
    part = pdes::partition_topology(*ls.topology, popts);
    sim.configure_shards(part.shards);
    runner = std::make_unique<pdes::ShardedRunner>(
        sim, *ls.topology, part, pdes::ShardedRunner::Mode::kCooperative);
  }

  std::vector<net::Host*> hosts;
  for (const auto& rack : ls.racks) {
    hosts.insert(hosts.end(), rack.begin(), rack.end());
  }
  traffic::TrafficSource source(
      sim, cluster, hosts, traffic::SourceOptions{reno(), {}, {}});
  traffic::TrafficConfig tc;
  tc.pattern = traffic::Pattern::kPoisson;
  tc.size_dist = traffic::SizeDist::kPareto;
  tc.mean_bytes = 40'000;
  tc.flows_per_second = 2000.0;
  tc.start = 0;
  tc.stop = sim::seconds(1);
  tc.seed = 17;
  source.install(tc);

  const sim::SimTime horizon = tc.stop + sim::seconds(2);
  if (runner != nullptr) {
    runner->run_until(horizon);
  } else {
    sim.run_until(horizon);
  }
  return source.completed_fcts_seconds();
}

TEST(FlowsimDeterminism, ShardedCooperativeByteIdenticalToSerial) {
  // The fluid backend posts no link deliveries, so partitioning the fabric
  // must not move or reorder a single flowsim event: the FCT vector under
  // the cooperative sharded runner is bit-identical to the serial run.
  const std::vector<double> serial = sharded_poisson_fcts(1);
  ASSERT_GT(serial.size(), 1000u);
  const std::vector<double> sharded = sharded_poisson_fcts(3);
  EXPECT_EQ(serial, sharded);
}

// ------------------------------------------------------- packet-level parity

TEST(FlowsimParity, SmallTopologyIterationTimesMatchPacketBackend) {
  // Stated tolerance: mean iteration time within 25% of the packet backend
  // on a 2-flow dumbbell training job. The fluid model has no slow start,
  // loss recovery or queueing delay, so it runs slightly fast; the fidelity
  // gate (bench/fidelity_gate) tracks the same bound campaign-wide.
  auto run = [](bool fluid) {
    sim::Simulator sim;
    net::DumbbellConfig dc;
    dc.hosts_per_side = 2;
    auto d = net::make_dumbbell(sim, dc);
    std::unique_ptr<flowsim::FlowSimulator> fs;
    workload::Cluster cluster(sim);
    if (fluid) {
      fs = std::make_unique<flowsim::FlowSimulator>(sim, *d.topology);
      cluster.set_backend(fs.get());
    }
    workload::JobSpec spec;
    spec.name = "train";
    spec.flows = {{d.left[0], d.right[0], 2'000'000},
                  {d.left[1], d.right[1], 2'000'000}};
    spec.compute_time = sim::milliseconds(10);
    spec.max_iterations = 15;
    spec.cc = core::mltcp_reno_factory();
    workload::Job* job = cluster.add_job(spec);
    cluster.start_all();
    sim.run_until(sim::seconds(10));
    const auto times = job->iteration_times_seconds();
    const double mean =
        std::accumulate(times.begin(), times.end(), 0.0) /
        static_cast<double>(times.size());
    return std::pair<int, double>{job->completed_iterations(), mean};
  };
  const auto [packet_iters, packet_mean] = run(false);
  const auto [fluid_iters, fluid_mean] = run(true);
  ASSERT_EQ(packet_iters, 15);
  ASSERT_EQ(fluid_iters, 15);
  EXPECT_NEAR(fluid_mean, packet_mean, 0.25 * packet_mean)
      << "fluid iteration time drifted beyond the 25% parity bound";
}

// ------------------------------------------------- §4 model on a dumbbell

analysis::PeriodicJob periodic(double comm, double compute, double start = 0.0,
                               double noise = 0.0) {
  return analysis::PeriodicJob{comm, compute, start, noise};
}

/// Constant F: plain TCP's equal share.
std::shared_ptr<const core::AggressivenessFunction> unit_gain() {
  return std::make_shared<core::CustomAggressiveness>(
      [](double) { return 1.0; }, "unit");
}

TEST(FlowsimDumbbell, SingleJobRunsAtIdealPeriod) {
  const auto run =
      analysis::run_dumbbell({periodic(0.3, 0.9)}, nullptr, 1, 10, 100.0);
  ASSERT_FALSE(run.truncated);
  for (const double t : run.iteration_times(0)) EXPECT_NEAR(t, 1.2, 0.002);
}

TEST(FlowsimDumbbell, TwoAlignedUnitGainJobsStayCongested) {
  const auto run = analysis::run_dumbbell(
      {periodic(0.45, 1.35), periodic(0.45, 1.35)}, unit_gain(), 1, 30, 200.0);
  ASSERT_FALSE(run.truncated);
  // Fair sharing preserves the overlap: both jobs stay at comm 0.9 forever.
  EXPECT_NEAR(run.iteration_times(0).back(), 0.9 + 1.35, 0.01);
  // A window of exactly two periods ending on an iteration boundary holds
  // two fully overlapped comm phases.
  EXPECT_NEAR(run.trailing_overlap_seconds(2 * 2.25), 2 * 0.9, 0.01);
}

TEST(FlowsimDumbbell, TwoMltcpJobsConvergeToIdeal) {
  const auto run = analysis::run_dumbbell(
      {periodic(0.45, 1.35), periodic(0.45, 1.35, 0.05)}, nullptr, 1, 40,
      300.0);
  ASSERT_FALSE(run.truncated);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(run.iteration_times(j).back(), 1.8, 0.01) << "job " << j;
  }
}

TEST(FlowsimDumbbell, ManyJobsInterleave) {
  std::vector<analysis::PeriodicJob> jobs;
  for (int i = 0; i < 5; ++i) jobs.push_back(periodic(0.3, 1.5, 0.01 * i));
  const auto run = analysis::run_dumbbell(jobs, nullptr, 1, 132, 500.0);
  ASSERT_FALSE(run.truncated);
  EXPECT_NEAR(run.trailing_overlap_seconds(20.0), 0.0, 0.2);
}

TEST(FlowsimDumbbell, UnitGainOverlapPersists) {
  // Staggered like TwoMltcpJobsConvergeToIdeal, but fair sharing keeps the
  // stagger (and ~0.9 s of overlap per iteration) instead of growing it.
  const auto run = analysis::run_dumbbell(
      {periodic(0.5, 0.5), periodic(0.5, 0.5, 0.05)}, unit_gain(), 1, 20,
      100.0);
  ASSERT_FALSE(run.truncated);
  EXPECT_GT(run.trailing_overlap_seconds(10.0), 1.0);
}

TEST(FlowsimDumbbell, OneIterationShiftMatchesEq3) {
  // One descent step of the flow-level model equals Eq. 3's shift.
  analysis::ShiftParams p;
  p.alpha = 0.5;
  p.period = 1.8;
  const double d0 = 0.2;
  const auto run = analysis::run_dumbbell(
      {periodic(0.9, 0.9), periodic(0.9, 0.9, d0)}, nullptr, 1, 2, 50.0);
  ASSERT_FALSE(run.truncated);
  EXPECT_NEAR(run.offset(1, 1, p.period) - d0, analysis::shift_eq3(d0, p),
              1e-3);
}

TEST(FlowsimDumbbell, OneIterationShiftMatchesEq3AcrossOffsets) {
  // Eq. 3 over its native domain [0, a*T]: a small shift when the trailing
  // job barely lags, the largest near the middle, and again small as it
  // approaches the interleaved point a*T.
  analysis::ShiftParams p;
  p.alpha = 0.5;
  p.period = 1.8;
  for (const double d0 : {0.05, 0.5, 0.8}) {
    const auto run = analysis::run_dumbbell(
        {periodic(0.9, 0.9), periodic(0.9, 0.9, d0)}, nullptr, 1, 2, 50.0);
    ASSERT_FALSE(run.truncated) << "d0 " << d0;
    EXPECT_NEAR(run.offset(1, 1, p.period) - d0, analysis::shift_eq3(d0, p),
                1e-3)
        << "d0 " << d0;
  }
}

TEST(FlowsimDumbbell, IsolatedCommPhaseLastsCommSeconds) {
  // comm_s is defined as the comm duration with the bottleneck to itself,
  // whatever message size that takes on the fabric.
  for (const double comm : {0.05, 0.3, 0.9}) {
    const auto run =
        analysis::run_dumbbell({periodic(comm, 0.5)}, nullptr, 1, 3, 100.0);
    ASSERT_FALSE(run.truncated);
    for (const auto& r : run.iterations[0]) {
      EXPECT_NEAR(sim::to_seconds(r.comm_end - r.comm_start), comm, 1e-3)
          << "comm " << comm;
      EXPECT_NEAR(sim::to_seconds(r.iter_end - r.comm_end), 0.5, 1e-6)
          << "comm " << comm;
    }
  }
}

TEST(FlowsimDumbbell, TrailingOverlapCountsOnlyTheWindow) {
  // An MLTCP pair started almost aligned overlaps heavily at first and not
  // at all once interleaved: the whole-run overlap is large, the trailing
  // window's is zero.
  const auto run = analysis::run_dumbbell(
      {periodic(0.45, 1.35), periodic(0.45, 1.35, 0.05)}, nullptr, 1, 40,
      300.0);
  ASSERT_FALSE(run.truncated);
  const double span =
      sim::to_seconds(std::min(run.iterations[0].back().iter_end,
                               run.iterations[1].back().iter_end));
  EXPECT_GT(run.trailing_overlap_seconds(span), 0.3);
  EXPECT_NEAR(run.trailing_overlap_seconds(10 * 1.8), 0.0, 1e-3);
}

TEST(FlowsimDumbbell, NoisyPairStaysWithinSection4Bound) {
  // §4: with per-iteration compute noise of std sigma, the converged offset
  // of two a = 1/2 jobs scatters around T/2 with std at most
  // 2 * sigma * (1 + Intercept/Slope).
  analysis::ShiftParams p;
  p.alpha = 0.5;
  p.period = 1.8;
  const double sigma = 0.01;
  const auto run = analysis::run_dumbbell(
      {periodic(0.9, 0.9, 0.0, sigma), periodic(0.9, 0.9, 0.45, sigma)},
      nullptr, 1234, 300, 1e4);
  ASSERT_FALSE(run.truncated);
  std::vector<double> errors;
  for (std::size_t i = 100; i < 300; ++i) {
    errors.push_back(run.offset(1, i, p.period) - p.period / 2.0);
  }
  const double bound =
      analysis::predicted_error_stddev(sigma, p.slope, p.intercept);
  EXPECT_GT(analysis::stddev(errors), 0.0) << "noise must perturb the offset";
  EXPECT_LE(analysis::stddev(errors), bound);
  EXPECT_NEAR(analysis::mean(errors), 0.0, bound);
}

TEST(FlowsimDumbbell, RunsAreDeterministic) {
  // Every record field, not just iteration times, repeats exactly.
  const auto records = [] {
    return analysis::run_dumbbell(
               {periodic(0.45, 1.35, 0.0, 0.01),
                periodic(0.45, 1.35, 0.05, 0.01),
                periodic(0.3, 1.5, 0.2, 0.01)},
               nullptr, 7, 30, 1e4)
        .iterations;
  };
  const auto a = records();
  const auto b = records();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    ASSERT_EQ(a[j].size(), b[j].size()) << "job " << j;
    for (std::size_t i = 0; i < a[j].size(); ++i) {
      EXPECT_EQ(a[j][i].comm_start, b[j][i].comm_start) << j << '/' << i;
      EXPECT_EQ(a[j][i].comm_end, b[j][i].comm_end) << j << '/' << i;
      EXPECT_EQ(a[j][i].iter_end, b[j][i].iter_end) << j << '/' << i;
    }
  }
}

TEST(FlowsimDumbbell, HeterogeneousPeriodsRunAtTheirOwnRate) {
  // Interleavable pair with different periods (1.2 s and 1.8 s).
  const auto run = analysis::run_dumbbell(
      {periodic(0.3, 0.9), periodic(0.27, 1.53, 0.35)}, nullptr, 1, 60, 1e4);
  ASSERT_FALSE(run.truncated);
  EXPECT_NEAR(analysis::tail_mean(run.iteration_times(0), 10), 1.2, 0.02);
  EXPECT_NEAR(analysis::tail_mean(run.iteration_times(1), 10), 1.8, 0.02);
}

TEST(FlowsimDumbbell, OverloadedLinkSharesShortfallAcrossJobs) {
  // Three jobs each demanding half the link: utilization 1.5, no schedule
  // can reach the ideal; everyone's converged iteration must exceed it.
  const auto run = analysis::run_dumbbell(
      {periodic(0.9, 0.9), periodic(0.9, 0.9, 0.2), periodic(0.9, 0.9, 0.4)},
      nullptr, 1, 60, 1e4);
  ASSERT_FALSE(run.truncated);
  double mean_all = 0.0;
  for (std::size_t j = 0; j < 3; ++j) {
    const double tail = analysis::tail_mean(run.iteration_times(j), 10);
    EXPECT_GT(tail, 1.9) << j;
    mean_all += tail / 3.0;
  }
  EXPECT_NEAR(mean_all, 0.9 * 3.0 * 0.9 + 0.9, 0.9)
      << "sanity: shortfall bounded";
}

TEST(FlowsimDumbbell, StaggeredStartsHonored) {
  const auto run = analysis::run_dumbbell(
      {periodic(0.2, 1.0), periodic(0.2, 1.0, 0.5)}, nullptr, 1, 2, 100.0);
  ASSERT_FALSE(run.truncated);
  EXPECT_NEAR(sim::to_seconds(run.iterations[0][0].comm_start), 0.0, 1e-3);
  EXPECT_NEAR(sim::to_seconds(run.iterations[1][0].comm_start), 0.5, 1e-3);
}

TEST(FlowsimDumbbell, SeededNoiseIsReproducibleAndSeedDependent) {
  const auto times = [](std::uint64_t seed) {
    return analysis::run_dumbbell(
               {periodic(0.3, 1.5, 0.0, 0.02), periodic(0.3, 1.5, 0.1, 0.02)},
               nullptr, seed, 30, 1e4)
        .iteration_times(0);
  };
  EXPECT_EQ(times(99), times(99));
  EXPECT_NE(times(1), times(2));
}

TEST(FlowsimDumbbell, ReportsTruncation) {
  // Each iteration takes ~1 s; a 2 s budget cannot fit 100 iterations.
  const auto cut =
      analysis::run_dumbbell({periodic(0.5, 0.5)}, nullptr, 1, 100, 2.0);
  EXPECT_TRUE(cut.truncated);
  EXPECT_LT(cut.iterations[0].size(), 100u)
      << "a truncated run must not have reached its target";

  const auto complete =
      analysis::run_dumbbell({periodic(0.5, 0.5)}, nullptr, 1, 3, 100.0);
  EXPECT_FALSE(complete.truncated);
  EXPECT_GE(complete.iterations[0].size(), 3u);
}

// ------------------------------------------------------ solver work at scale

// The cluster_scale 16x16x4 leaf-spine under the two loads that drive the
// incremental solver's two paths: Poisson arrivals and completions, and
// MLTCP weight refreshes under training collectives. Channel-rate freezes
// per completed transfer are a pure function of the model, so the ceiling
// is machine-independent: 1.5x the dirty-set solver's measured cost (1.418
// and 8.900 fills/transfer). Each test also runs the full-recompute
// reference (16.1 and 235), which moves the same transfers and breaks it.
// Wall time on the same worlds is bench/perf's job.

struct SolverWork {
  std::int64_t posted = 0;
  std::int64_t completed = 0;
  std::int64_t full_recomputes = 0;
  double fills_per_transfer = 0.0;
};

/// Reads the counters through the telemetry registry, the same path a
/// report scrapes, rather than the stats struct.
SolverWork solver_work(const flowsim::FlowSimulator& fs) {
  telemetry::MetricRegistry reg;
  telemetry::collect_flowsim(reg, "flowsim", fs.stats());
  SolverWork w;
  w.posted = reg.counter("flowsim/messages_posted").value();
  w.completed = reg.counter("flowsim/messages_completed").value();
  w.full_recomputes = reg.counter("flowsim/full_recomputes").value();
  if (w.completed > 0) {
    w.fills_per_transfer =
        static_cast<double>(reg.counter("flowsim/waterfill_channels").value()) /
        static_cast<double>(w.completed);
  }
  return w;
}

/// 16 racks x 16 hosts x 4 spines on the flow-level backend.
struct ScaleRig {
  sim::Simulator sim;
  net::LeafSpine ls;
  std::unique_ptr<flowsim::FlowSimulator> fs;
  workload::Cluster cluster{sim};

  explicit ScaleRig(const flowsim::FlowSimConfig& fs_cfg) {
    net::LeafSpineConfig cfg;
    cfg.racks = 16;
    cfg.hosts_per_rack = 16;
    cfg.spines = 4;
    cfg.host_rate_bps = 4e9;
    cfg.fabric_rate_bps = 1e9;
    ls = net::make_leaf_spine(sim, cfg);
    fs = std::make_unique<flowsim::FlowSimulator>(sim, *ls.topology, fs_cfg);
    cluster.set_backend(fs.get());
  }
};

TEST(FlowsimScale, PoissonSliceStaysUnderSolverWorkCeiling) {
  // The first 6 s of bench/perf's flowsim-poisson-1m arrivals plus a 5 s
  // drain: 16,000 flows/s, 40 KB bounded-Pareto sizes.
  for (const bool full_recompute : {false, true}) {
    SCOPED_TRACE(full_recompute ? "full recompute" : "dirty set");
    ScaleRig rig({.full_recompute = full_recompute});
    std::vector<net::Host*> hosts;
    for (const auto& rack : rig.ls.racks) {
      hosts.insert(hosts.end(), rack.begin(), rack.end());
    }
    traffic::TrafficSource source(rig.sim, rig.cluster, hosts,
                                  traffic::SourceOptions{reno(), {}, {}});
    traffic::TrafficConfig tc;
    tc.pattern = traffic::Pattern::kPoisson;
    tc.size_dist = traffic::SizeDist::kPareto;
    tc.mean_bytes = 40'000;
    tc.flows_per_second = 16'000.0;
    tc.start = 0;
    tc.stop = sim::seconds(6);
    tc.seed = 31;
    source.install(tc);
    rig.sim.run_until(tc.stop + sim::seconds(5));

    const SolverWork w = solver_work(*rig.fs);
    EXPECT_EQ(w.posted, 96'050);
    EXPECT_EQ(w.completed, w.posted) << "every posted transfer must complete";
    EXPECT_EQ(w.full_recomputes > 0, full_recompute);
    EXPECT_EQ(w.fills_per_transfer > 1.5 * 1.418, full_recompute)
        << w.fills_per_transfer << " fills per transfer";
  }
}

TEST(FlowsimScale, TrainingStaysUnderSolverWorkCeiling) {
  // 256 MLTCP jobs x 4 flows x 500 KB, 50 ms compute, 10 iterations, placed
  // rack r -> rack r+1 round-robin with starts staggered over 64 slots.
  for (const bool full_recompute : {false, true}) {
    SCOPED_TRACE(full_recompute ? "full recompute" : "dirty set");
    ScaleRig rig({.full_recompute = full_recompute});
    const int racks = static_cast<int>(rig.ls.racks.size());
    const int hosts_per_rack = static_cast<int>(rig.ls.racks[0].size());
    for (int j = 0; j < 256; ++j) {
      const int src_rack = j % racks;
      const int dst_rack = (src_rack + 1) % racks;
      const int base_host = (j / racks) % hosts_per_rack;
      workload::JobSpec spec;
      spec.name = "job" + std::to_string(j);
      for (int f = 0; f < 4; ++f) {
        const int h = (base_host + f) % hosts_per_rack;
        spec.flows.push_back(workload::FlowSpec{
            rig.ls.racks[src_rack][h], rig.ls.racks[dst_rack][h], 500'000});
      }
      spec.compute_time = sim::milliseconds(50);
      spec.max_iterations = 10;
      spec.start_time = sim::milliseconds(5 * (j % 64));
      spec.cc = core::mltcp_reno_factory();
      rig.cluster.add_job(spec);
    }
    rig.cluster.start_all();
    rig.sim.run_until(sim::seconds(40));

    const SolverWork w = solver_work(*rig.fs);
    EXPECT_EQ(w.posted, 10'240);
    EXPECT_EQ(w.completed, w.posted) << "every posted message must complete";
    EXPECT_EQ(w.full_recomputes > 0, full_recompute);
    EXPECT_EQ(w.fills_per_transfer > 1.5 * 8.900, full_recompute)
        << w.fills_per_transfer << " fills per transfer";
  }
}

}  // namespace
}  // namespace mltcp
