// Failure-injection tests: transient blackouts, flapping loss, and abrupt
// competitor arrival. The transport must always recover and the MLTCP
// machinery must re-converge afterwards.

#include <gtest/gtest.h>

#include <memory>

#include "analysis/metrics.hpp"
#include "core/mltcp.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "tcp/flow.hpp"
#include "telemetry/collect.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/tracer.hpp"
#include "workload/cluster.hpp"
#include "workload/collective.hpp"
#include "workload/profiles.hpp"

namespace mltcp {
namespace {

/// Dumbbell whose bottleneck loss probability can be changed mid-run.
struct LossyRig {
  sim::Simulator sim;
  net::Dumbbell d;
  net::RandomDropQueue* knob = nullptr;

  LossyRig() {
    net::DumbbellConfig cfg;
    cfg.hosts_per_side = 2;
    cfg.bottleneck_queue = [this] {
      auto q = std::make_unique<net::RandomDropQueue>(
          std::make_unique<net::FifoQueue>(512 * 1500), 0.0, 7);
      // Only the first-created queue (the forward bottleneck) gets the knob.
      if (knob == nullptr) knob = q.get();
      return q;
    };
    d = net::make_dumbbell(sim, cfg);
  }
};

TEST(FailureInjection, TransferSurvivesTotalBlackout) {
  LossyRig rig;
  // Flight recorder on the loss categories: if the run goes bad, the last
  // events explain it — and after the blackout it must contain the RTOs.
  telemetry::Tracer tracer(telemetry::Tracer::Config{
      telemetry::Category::kTcp | telemetry::Category::kQueue, 256});
  rig.sim.set_tracer(&tracer);

  tcp::TcpFlow flow(rig.sim, *rig.d.left[0], *rig.d.right[0], 1,
                    std::make_unique<tcp::RenoCC>());
  sim::SimTime done = -1;
  flow.send_message(10'000'000, [&](sim::SimTime t) { done = t; });

  // 50 ms in, the link goes dark for 200 ms.
  rig.sim.schedule(sim::milliseconds(50),
                   [&] { rig.knob->set_drop_probability(1.0); });
  rig.sim.schedule(sim::milliseconds(250),
                   [&] { rig.knob->set_drop_probability(0.0); });

  rig.sim.run_until(sim::seconds(30));
  ASSERT_GT(done, 0) << "flow never recovered from the blackout";
  EXPECT_EQ(flow.receiver().rcv_next(),
            flow.sender().segments_for_bytes(10'000'000));

  // The consolidated registry view must agree with the raw stats struct:
  // a full blackout is survived via RTO.
  telemetry::MetricRegistry reg;
  telemetry::collect_sender(reg, "tcp/flow1", flow.sender());
  EXPECT_GT(reg.counter("tcp/flow1/timeouts").value(), 0)
      << "a full blackout must be survived via RTO";
  EXPECT_EQ(reg.counter("tcp/flow1/timeouts").value(),
            flow.sender().stats().timeouts);

  // Anomaly detected (an RTO burst): dump the black box. The retained tail
  // must actually contain the rto/drop events of the blackout.
  telemetry::InMemorySink blackbox;
  tracer.dump_ring(blackbox);
  EXPECT_GT(tracer.emitted(), 0u);
  EXPECT_GT(blackbox.count("rto") + blackbox.count("drop"), 0u);
}

TEST(FailureInjection, RtoBackoffDuringBlackoutThenRecovers) {
  LossyRig rig;
  tcp::TcpFlow flow(rig.sim, *rig.d.left[0], *rig.d.right[0], 1,
                    std::make_unique<tcp::RenoCC>());
  sim::SimTime done = -1;
  flow.send_message(2'000'000, [&](sim::SimTime t) { done = t; });

  rig.sim.schedule(sim::milliseconds(5),
                   [&] { rig.knob->set_drop_probability(1.0); });
  rig.sim.schedule(sim::seconds(1),
                   [&] { rig.knob->set_drop_probability(0.0); });
  rig.sim.run_until(sim::seconds(90));
  ASSERT_GT(done, 0);
  // A 1 s blackout forces several backed-off RTOs, but recovery must not
  // take more than a few seconds beyond it.
  EXPECT_GE(flow.sender().stats().timeouts, 2);
  EXPECT_LT(sim::to_seconds(done), 6.0);
}

TEST(FailureInjection, FlappingLossDoesNotWedgeSack) {
  LossyRig rig;
  tcp::SenderConfig scfg;
  scfg.use_sack = true;
  tcp::TcpFlow flow(rig.sim, *rig.d.left[0], *rig.d.right[0], 1,
                    std::make_unique<tcp::RenoCC>(), scfg);
  sim::SimTime done = -1;
  flow.send_message(8'000'000, [&](sim::SimTime t) { done = t; });

  // Loss flaps between 5% and 0 every 20 ms for half a second.
  for (int i = 0; i < 25; ++i) {
    rig.sim.schedule(sim::milliseconds(20 * i), [&, i] {
      rig.knob->set_drop_probability(i % 2 == 0 ? 0.05 : 0.0);
    });
  }
  rig.sim.schedule(sim::milliseconds(500),
                   [&] { rig.knob->set_drop_probability(0.0); });
  rig.sim.run_until(sim::seconds(60));
  ASSERT_GT(done, 0);
  EXPECT_EQ(flow.receiver().rcv_next(),
            flow.sender().segments_for_bytes(8'000'000));

  // Intermittent 5% loss on a SACK flow must be absorbed by fast
  // retransmits (dupACK recovery), not by stalling into RTOs.
  telemetry::MetricRegistry reg;
  telemetry::collect_sender(reg, "tcp/flow1", flow.sender());
  EXPECT_GT(reg.counter("tcp/flow1/fast_retransmits").value(), 0)
      << "flapping loss should trigger dupACK recovery";
  EXPECT_EQ(reg.counter("tcp/flow1/fast_retransmits").value(),
            flow.sender().stats().fast_retransmits);
}

TEST(FailureInjection, MltcpJobRidesOutLossBurstAndReconverges) {
  LossyRig rig;
  workload::Cluster cluster(rig.sim);
  const workload::ModelProfile gpt2 = workload::gpt2_profile();
  const std::int64_t bytes = workload::comm_bytes(gpt2, 1e9);
  core::MltcpConfig cfg;
  cfg.tracker.total_bytes = bytes;
  cfg.tracker.comp_time = workload::compute_time(gpt2) / 2;

  std::vector<workload::Job*> jobs;
  for (int i = 0; i < 2; ++i) {
    workload::JobSpec spec;
    spec.name = "j" + std::to_string(i);
    spec.flows =
        workload::single_flow(rig.d.left[i], rig.d.right[i], bytes);
    spec.compute_time = workload::compute_time(gpt2);
    spec.max_iterations = 30;
    spec.cc = core::mltcp_reno_factory(cfg);
    jobs.push_back(cluster.add_job(spec));
  }

  // A 3% loss burst between t=15s and t=20s (mid-convergence).
  rig.sim.schedule(sim::seconds(15),
                   [&] { rig.knob->set_drop_probability(0.03); });
  rig.sim.schedule(sim::seconds(20),
                   [&] { rig.knob->set_drop_probability(0.0); });

  cluster.start_all();
  rig.sim.run_until(sim::seconds(120));

  const double ideal = sim::to_seconds(gpt2.ideal_iteration_time);
  for (workload::Job* job : jobs) {
    ASSERT_EQ(job->completed_iterations(), 30) << job->name();
    EXPECT_LT(analysis::tail_mean(job->iteration_times_seconds(), 5),
              ideal * 1.10)
        << job->name() << " did not re-converge after the loss burst";
  }
}

}  // namespace
}  // namespace mltcp
