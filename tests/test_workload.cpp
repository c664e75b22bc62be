#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "analysis/metrics.hpp"
#include "core/mltcp.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "workload/cluster.hpp"
#include "workload/collective.hpp"
#include "workload/job.hpp"
#include "workload/profiles.hpp"

namespace mltcp::workload {
namespace {

struct Rig {
  sim::Simulator sim;
  net::Dumbbell d;
  std::unique_ptr<Cluster> cluster;

  explicit Rig(int hosts = 2) {
    net::DumbbellConfig cfg;
    cfg.hosts_per_side = hosts;
    d = net::make_dumbbell(sim, cfg);
    cluster = std::make_unique<Cluster>(sim);
  }

  JobSpec basic_spec(int host, std::int64_t bytes, sim::SimTime compute,
                     int iters) {
    JobSpec spec;
    spec.name = "job" + std::to_string(host);
    spec.flows = single_flow(d.left[host], d.right[host], bytes);
    spec.compute_time = compute;
    spec.max_iterations = iters;
    spec.cc = core::reno_factory();
    return spec;
  }
};

// ------------------------------------------------------------------- jobs

TEST(Job, RunsExactlyMaxIterations) {
  Rig rig;
  Job* job = rig.cluster->add_job(
      rig.basic_spec(0, 1'000'000, sim::milliseconds(50), 7));
  rig.cluster->start_all();
  rig.sim.run_until(sim::seconds(20));
  EXPECT_EQ(job->completed_iterations(), 7);
  EXPECT_FALSE(job->running());
}

TEST(Job, IterationTimeIsCommPlusCompute) {
  Rig rig;
  // 1 MB at 1 Gbps ~ 8.4 ms wire time; compute 100 ms.
  Job* job = rig.cluster->add_job(
      rig.basic_spec(0, 1'000'000, sim::milliseconds(100), 5));
  rig.cluster->start_all();
  rig.sim.run_until(sim::seconds(10));
  for (const double t : job->iteration_times_seconds()) {
    EXPECT_GT(t, 0.108);
    EXPECT_LT(t, 0.125);
  }
}

TEST(Job, NextCommGatedOnPreviousCompletion) {
  Rig rig;
  Job* job = rig.cluster->add_job(
      rig.basic_spec(0, 1'000'000, sim::milliseconds(100), 4));
  rig.cluster->start_all();
  rig.sim.run_until(sim::seconds(10));
  const auto& recs = job->iterations();
  ASSERT_EQ(recs.size(), 4u);
  for (std::size_t i = 1; i < recs.size(); ++i) {
    // Comm i starts exactly when iteration i-1 ends (the DNN dependency).
    EXPECT_EQ(recs[i].comm_start, recs[i - 1].iter_end);
    EXPECT_GE(recs[i].comm_end, recs[i].comm_start);
  }
}

TEST(Job, StartTimeDelaysFirstIteration) {
  Rig rig;
  auto spec = rig.basic_spec(0, 500'000, sim::milliseconds(10), 2);
  spec.start_time = sim::milliseconds(250);
  Job* job = rig.cluster->add_job(spec);
  rig.cluster->start_all();
  rig.sim.run_until(sim::seconds(5));
  ASSERT_GE(job->completed_iterations(), 1);
  EXPECT_EQ(job->iterations()[0].comm_start, sim::milliseconds(250));
}

TEST(Job, GatePeriodPinsSlots) {
  Rig rig;
  auto spec = rig.basic_spec(0, 500'000, sim::milliseconds(10), 5);
  spec.gate_period = sim::milliseconds(200);
  spec.start_time = sim::milliseconds(30);
  Job* job = rig.cluster->add_job(spec);
  rig.cluster->start_all();
  rig.sim.run_until(sim::seconds(5));
  const auto& recs = job->iterations();
  ASSERT_EQ(recs.size(), 5u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].comm_start,
              sim::milliseconds(30) + sim::milliseconds(200) * (int)i);
  }
}

TEST(Job, GaussianNoisePerturbsComputePhase) {
  Rig rig;
  auto spec = rig.basic_spec(0, 500'000, sim::milliseconds(100), 40);
  spec.noise_stddev_seconds = 0.01;
  Job* job = rig.cluster->add_job(spec);
  rig.cluster->start_all();
  rig.sim.run_until(sim::seconds(30));
  const auto times = job->iteration_times_seconds();
  ASSERT_EQ(times.size(), 40u);
  const double sd = analysis::stddev(times);
  EXPECT_GT(sd, 0.004);
  EXPECT_LT(sd, 0.02);
}

TEST(Job, MultiFlowIterationWaitsForAllFlows) {
  Rig rig;
  JobSpec spec;
  spec.name = "multi";
  // Two flows with very different sizes: completion waits for the big one.
  spec.flows.push_back(FlowSpec{rig.d.left[0], rig.d.right[0], 100'000});
  spec.flows.push_back(FlowSpec{rig.d.left[1], rig.d.right[1], 5'000'000});
  spec.compute_time = sim::milliseconds(10);
  spec.max_iterations = 2;
  spec.cc = core::reno_factory();
  Job* job = rig.cluster->add_job(spec);
  rig.cluster->start_all();
  rig.sim.run_until(sim::seconds(10));
  ASSERT_EQ(job->completed_iterations(), 2);
  // 5 MB at 1 Gbps ~ 41 ms; comm duration reflects the big flow.
  for (const double c : job->comm_times_seconds()) EXPECT_GT(c, 0.04);
  EXPECT_EQ(job->bytes_per_iteration(), 5'100'000);
}

// ------------------------------------------------------------- collectives

TEST(Collective, RingAllreduceFlowsAndVolume) {
  Rig rig(4);
  std::vector<net::Host*> workers = {rig.d.left[0], rig.d.right[0],
                                     rig.d.left[1], rig.d.right[1]};
  const auto flows = ring_allreduce(workers, 4'000'000);
  ASSERT_EQ(flows.size(), 4u);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(flows[i].src, workers[i]);
    EXPECT_EQ(flows[i].dst, workers[(i + 1) % 4]);
    // 2 * (n-1)/n * bytes = 2 * 3/4 * 4 MB = 6 MB per ring link.
    EXPECT_EQ(flows[i].bytes_per_iteration, 6'000'000);
  }
}

TEST(Collective, ParameterServerOneFlowPerWorker) {
  Rig rig(3);
  std::vector<net::Host*> workers = {rig.d.left[0], rig.d.left[1],
                                     rig.d.left[2]};
  const auto flows = parameter_server(workers, rig.d.right[0], 1'000'000);
  ASSERT_EQ(flows.size(), 3u);
  for (const auto& f : flows) {
    EXPECT_EQ(f.dst, rig.d.right[0]);
    EXPECT_EQ(f.bytes_per_iteration, 1'000'000);
  }
}

TEST(Collective, RingJobRunsOnTopology) {
  Rig rig(2);
  JobSpec spec;
  spec.name = "ring";
  spec.flows = ring_allreduce(
      {rig.d.left[0], rig.d.right[0], rig.d.left[1], rig.d.right[1]},
      2'000'000);
  spec.compute_time = sim::milliseconds(50);
  spec.max_iterations = 3;
  spec.cc = core::reno_factory();
  Job* job = rig.cluster->add_job(spec);
  rig.cluster->start_all();
  rig.sim.run_until(sim::seconds(20));
  EXPECT_EQ(job->completed_iterations(), 3);
}

// ---------------------------------------------------------------- cluster

TEST(Cluster, AllocatesUniqueFlowIds) {
  Rig rig;
  rig.cluster->add_job(rig.basic_spec(0, 100'000, 0, 1));
  rig.cluster->add_job(rig.basic_spec(1, 100'000, 0, 1));
  EXPECT_NE(rig.cluster->flows_of(0)[0]->id(),
            rig.cluster->flows_of(1)[0]->id());
}

TEST(Cluster, TracksJobsAndFlows) {
  Rig rig;
  JobSpec spec = rig.basic_spec(0, 100'000, 0, 1);
  spec.flows.push_back(FlowSpec{rig.d.left[1], rig.d.right[1], 100'000});
  rig.cluster->add_job(spec);
  EXPECT_EQ(rig.cluster->job_count(), 1u);
  EXPECT_EQ(rig.cluster->flows_of(0).size(), 2u);
}

TEST(Cluster, AddJobRejectsFewerBytesThanChunks) {
  Rig rig;
  JobSpec spec = rig.basic_spec(0, 100'000, 0, 1);
  spec.flows.push_back(FlowSpec{rig.d.left[1], rig.d.right[1], 2});
  spec.comm_chunks = 3;
  try {
    rig.cluster->add_job(spec);
    ADD_FAILURE() << "2 bytes over 3 chunks was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job0"), std::string::npos) << what;
    EXPECT_NE(what.find("flow 1"), std::string::npos) << what;
  }
  // A single chunk still needs a positive size.
  for (const std::int64_t bytes : {0, -5}) {
    JobSpec single = rig.basic_spec(1, 100'000, 0, 1);
    single.flows[0].bytes_per_iteration = bytes;
    EXPECT_THROW(rig.cluster->add_job(single), std::invalid_argument);
  }
  EXPECT_EQ(rig.cluster->job_count(), 0u);

  // The rejected specs took no flow id, and exactly one byte per chunk runs.
  spec.flows[1].bytes_per_iteration = 3;
  rig.cluster->add_job(spec);
  EXPECT_EQ(rig.cluster->flows_of(0)[0]->id(), 1);
  rig.cluster->start_all();
  rig.sim.run_until(sim::seconds(5));
  EXPECT_EQ(rig.cluster->job(0)->completed_iterations(), 1);
}

TEST(Cluster, ChannelsComeFromThePacketBackendByDefault) {
  // Installed, then replaced by nullptr: it must never open a channel.
  struct UnusedBackend final : Backend {
    Channel* create_channel(const ChannelSpec&) override {
      ADD_FAILURE() << "set_backend(nullptr) did not restore the packet path";
      return nullptr;
    }
    const char* name() const override { return "unused"; }
  };
  for (const bool restored : {false, true}) {
    Rig rig;
    UnusedBackend unused;
    if (restored) {
      rig.cluster->set_backend(&unused);
      rig.cluster->set_backend(nullptr);
    }
    Channel* a = rig.cluster->add_channel(
        FlowSpec{rig.d.left[0], rig.d.right[0], 0}, core::reno_factory());
    Channel* b = rig.cluster->add_channel(
        FlowSpec{rig.d.left[1], rig.d.right[1], 0}, core::reno_factory());
    ASSERT_NE(a->tcp(), nullptr);
    ASSERT_NE(b->tcp(), nullptr);
    EXPECT_EQ(a->tcp()->id(), a->id());
    EXPECT_EQ(b->id(), a->id() + 1);
  }
}

// ---------------------------------------------------------------- profiles

TEST(Profiles, TimingDecomposition) {
  const ModelProfile gpt2 = gpt2_profile();
  EXPECT_EQ(comm_time(gpt2) + compute_time(gpt2), gpt2.ideal_iteration_time);
  EXPECT_EQ(comm_time(gpt2), sim::milliseconds(270));
}

TEST(Profiles, CommBytesMatchLinkRate) {
  // 0.27 s at 1 Gbps = 33.75 MB.
  EXPECT_EQ(comm_bytes(gpt2_profile(), 1e9), 33'750'000);
  // Scaling the link scales the bytes.
  EXPECT_EQ(comm_bytes(gpt2_profile(), 50e9), 50 * 33'750'000LL);
}

TEST(Profiles, AllProfilesWellFormed) {
  for (const auto& p : {gpt3_profile(), gpt2_profile(), bert_profile(),
                        vgg_profile()}) {
    EXPECT_GT(p.ideal_iteration_time, 0) << p.model_name;
    EXPECT_GT(p.comm_fraction, 0.0) << p.model_name;
    EXPECT_LT(p.comm_fraction, 1.0) << p.model_name;
  }
}

TEST(Profiles, Figure2ScenarioIsInterleavable) {
  // 0.25 + 3 * 0.15 = 0.70 < 1: the four-job scenario has packing slack.
  const double util = gpt3_profile().comm_fraction +
                      3.0 * gpt2_profile().comm_fraction;
  EXPECT_LT(util, 1.0);
}

}  // namespace
}  // namespace mltcp::workload
