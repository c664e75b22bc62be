// Transport-zoo tests: the rate-based controllers (BBR's state machine and
// Gemini's dual loop), the MLTCP seams they expose, the Swift/RTO
// decrease-accounting regression fixes, and proof that both new controllers
// stay byte-identical under the fluid backend and the sharded PDES engine.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/mltcp.hpp"
#include "flowsim/flow_simulator.hpp"
#include "net/topology.hpp"
#include "pdes/partition.hpp"
#include "pdes/sharded_runner.hpp"
#include "runner/campaign.hpp"
#include "sim/simulator.hpp"
#include "tcp/bbr.hpp"
#include "tcp/flow.hpp"
#include "tcp/gemini.hpp"
#include "tcp/rtt_estimator.hpp"
#include "tcp/swift.hpp"
#include "workload/cluster.hpp"
#include "workload/collective.hpp"

namespace mltcp {
namespace {

class FixedGain : public tcp::WindowGain {
 public:
  explicit FixedGain(double g) : g_(g) {}
  double gain() const override { return g_; }
  std::string name() const override { return "fixed"; }

 private:
  double g_;
};

// ------------------------------------------------------------------- BBR

/// Feeds BbrCC a synthetic ACK stream with explicit sequence/inflight
/// bookkeeping, the two inputs its round accounting runs on.
struct BbrDriver {
  explicit BbrDriver(tcp::BbrCC& cc) : cc_(cc) {}

  void ack(int num, std::int64_t inflight, sim::SimTime rtt,
           sim::SimTime step) {
    now_ += step;
    seq_ += num;
    tcp::AckContext ctx;
    ctx.now = now_;
    ctx.num_acked = num;
    ctx.ack_seq = seq_;
    ctx.rtt_sample = rtt;
    ctx.inflight = inflight;
    cc_.on_ack(ctx);
  }

  sim::SimTime now() const { return now_; }

 private:
  tcp::BbrCC& cc_;
  sim::SimTime now_ = 0;
  std::int64_t seq_ = 0;
};

constexpr sim::SimTime kRtt = sim::microseconds(100);
constexpr double kSegsPerSec = 1e5;  // 10 segments per 100 us round.

/// Constant 10-segment rounds at 100 us: bandwidth plateaus immediately, so
/// STARTUP exits after startup_full_bw_rounds flat rounds, DRAIN exits as
/// soon as inflight <= BDP (= 10 segments).
void drive_to_probe_bw(BbrDriver& d) {
  for (int i = 0; i < 6; ++i) d.ack(10, 10, kRtt, kRtt);
}

TEST(BbrCC, StartupPlateauDrainsIntoProbeBw) {
  tcp::BbrCC cc;
  BbrDriver d(cc);
  EXPECT_EQ(cc.state(), tcp::BbrCC::State::kStartup);
  EXPECT_DOUBLE_EQ(cc.pacing_rate(), 0.0) << "ACK-clocked until measured";
  EXPECT_DOUBLE_EQ(cc.cwnd(), 10.0);

  drive_to_probe_bw(d);
  EXPECT_EQ(cc.state(), tcp::BbrCC::State::kProbeBw);
  EXPECT_TRUE(cc.filled_pipe());
  EXPECT_NEAR(cc.btl_bw(), kSegsPerSec, 1.0);
  EXPECT_EQ(cc.min_rtt(), kRtt);
  EXPECT_NEAR(cc.bdp(), 10.0, 1e-6);
  // Steady state: cwnd_gain * BDP, cruise pacing at btl_bw.
  EXPECT_NEAR(cc.cwnd(), 20.0, 1e-6);
  EXPECT_EQ(cc.probe_bw_phase(), 2) << "deterministic cruise-phase start";
  EXPECT_NEAR(cc.pacing_rate(), kSegsPerSec, 1.0);
}

TEST(BbrCC, ProbeBwCyclesOnePhasePerRound) {
  tcp::BbrCC cc;
  BbrDriver d(cc);
  drive_to_probe_bw(d);
  int phase = cc.probe_bw_phase();
  for (int i = 0; i < 8; ++i) {
    d.ack(10, 10, kRtt, kRtt);
    EXPECT_EQ(cc.probe_bw_phase(), (phase + 1) % 8);
    phase = cc.probe_bw_phase();
  }
}

TEST(BbrCC, MltcpGainScalesOnlyTheUpPhase) {
  // The augmentation seam: up-phase pacing gain is 1 + (1.25-1)*F, the
  // down/cruise phases are untouched — a finishing flow probes harder, it
  // never drains or cruises differently.
  auto run = [](std::shared_ptr<tcp::WindowGain> gain) {
    tcp::BbrCC cc(tcp::BbrConfig{}, std::move(gain));
    BbrDriver d(cc);
    drive_to_probe_bw(d);
    std::vector<double> by_phase(8, 0.0);
    for (int i = 0; i < 8; ++i) {
      d.ack(10, 10, kRtt, kRtt);
      by_phase[static_cast<std::size_t>(cc.probe_bw_phase())] =
          cc.current_pacing_gain();
    }
    return by_phase;
  };
  const auto plain = run(nullptr);
  const auto eager = run(std::make_shared<FixedGain>(2.0));
  const auto shy = run(std::make_shared<FixedGain>(0.25));
  EXPECT_DOUBLE_EQ(plain[0], 1.25);
  EXPECT_DOUBLE_EQ(eager[0], 1.5);
  EXPECT_DOUBLE_EQ(shy[0], 1.0625);
  for (int p = 1; p < 8; ++p) {
    EXPECT_DOUBLE_EQ(eager[static_cast<std::size_t>(p)],
                     plain[static_cast<std::size_t>(p)])
        << "phase " << p << " must not be gain-scaled";
    EXPECT_DOUBLE_EQ(shy[static_cast<std::size_t>(p)],
                     plain[static_cast<std::size_t>(p)]);
  }
  EXPECT_DOUBLE_EQ(plain[1], 0.75);
}

TEST(BbrCC, ProbeRttCollapsesWindowThenResumes) {
  tcp::BbrCC cc;
  BbrDriver d(cc);
  drive_to_probe_bw(d);
  // min_rtt keeps getting restamped while samples equal the minimum; an
  // elevated sample after the window expires must trigger PROBE_RTT.
  d.ack(10, 10, sim::microseconds(150), sim::seconds(11));
  ASSERT_EQ(cc.state(), tcp::BbrCC::State::kProbeRtt);
  EXPECT_DOUBLE_EQ(cc.cwnd(), 4.0) << "PROBE_RTT drains to min_cwnd";
  // While draining, any sample refreshes the estimate.
  d.ack(10, 4, sim::microseconds(150), sim::milliseconds(200));
  EXPECT_EQ(cc.state(), tcp::BbrCC::State::kProbeBw);
  EXPECT_EQ(cc.min_rtt(), sim::microseconds(150));
  EXPECT_EQ(cc.probe_bw_phase(), 2);
}

TEST(BbrCC, TimeoutDiscardsModelAndRestartsDiscovery) {
  tcp::BbrCC cc;
  BbrDriver d(cc);
  drive_to_probe_bw(d);
  ASSERT_GT(cc.btl_bw(), 0.0);
  cc.on_timeout(d.now());
  EXPECT_EQ(cc.state(), tcp::BbrCC::State::kStartup);
  EXPECT_DOUBLE_EQ(cc.btl_bw(), 0.0);
  EXPECT_FALSE(cc.filled_pipe());
  EXPECT_DOUBLE_EQ(cc.pacing_rate(), 0.0);
  EXPECT_DOUBLE_EQ(cc.cwnd(), 10.0) << "back to initial_cwnd until measured";
  EXPECT_EQ(cc.min_rtt(), kRtt) << "min_rtt survives the outage";
}

TEST(BbrCC, NameReflectsGain) {
  EXPECT_EQ(tcp::BbrCC().name(), "bbr");
  tcp::BbrCC scaled(tcp::BbrConfig{}, std::make_shared<FixedGain>(2.0));
  EXPECT_EQ(scaled.name(), "mltcp-bbr[fixed]");
}

// ---------------------------------------------------------------- Gemini

tcp::AckContext gem_ack(sim::SimTime now, std::int64_t ack_seq, int num,
                        sim::SimTime rtt, bool ece = false) {
  tcp::AckContext ctx;
  ctx.now = now;
  ctx.num_acked = num;
  ctx.ack_seq = ack_seq;
  ctx.rtt_sample = rtt;
  ctx.ece = ece;
  return ctx;
}

/// Congestion-avoidance configuration: ssthresh below cwnd from the start.
tcp::GeminiConfig gem_ca() {
  tcp::GeminiConfig cfg;
  cfg.initial_ssthresh = 1.0;
  return cfg;
}

TEST(GeminiCC, EcnLoopCutsProportionallyAtWindowEnd) {
  tcp::GeminiCC cc(gem_ca());
  // A fully-marked first window: alpha stays at its RFC 8257 init of 1.0,
  // the cut is alpha/2 and ssthresh records the post-cut window.
  cc.on_ack(gem_ack(sim::milliseconds(1), 11, 10, sim::microseconds(300),
                    /*ece=*/true));
  EXPECT_DOUBLE_EQ(cc.alpha(), 1.0);
  EXPECT_DOUBLE_EQ(cc.ssthresh(), 5.0);
  // After the cut the same ACK's congestion-avoidance step still applies:
  // 5 + 1 * h(=1) * 10/5.
  EXPECT_NEAR(cc.cwnd(), 7.0, 1e-9);
}

TEST(GeminiCC, DelayLoopCutsWhenQueueingExceedsThreshold) {
  tcp::GeminiCC cc(gem_ca());
  cc.on_ack(gem_ack(sim::milliseconds(1), 5, 5, sim::microseconds(300)));
  EXPECT_NEAR(cc.cwnd(), 10.5, 1e-9);  // under threshold: pure increase
  // 2 ms of queueing over the 300 us base: excess = (2000-1000)/1000 = 1.0
  // -> the full delay_beta = 0.2 cut on the 10.5 window.
  cc.on_ack(gem_ack(sim::milliseconds(2), 11, 6, sim::microseconds(2300)));
  EXPECT_NEAR(cc.ssthresh(), 10.5 * 0.8, 1e-9);
  EXPECT_NEAR(cc.alpha(), 15.0 / 16.0, 1e-12) << "unmarked window decays alpha";
}

TEST(GeminiCC, FusedLoopsApplyOnlyTheStrongerCut) {
  tcp::GeminiCC cc(gem_ca());
  cc.on_ack(gem_ack(sim::milliseconds(1), 5, 5, sim::microseconds(300),
                    /*ece=*/true));
  // Window end sees both signals: ECN cut 0.5 beats delay cut 0.2; they
  // must not compound.
  cc.on_ack(gem_ack(sim::milliseconds(2), 11, 6, sim::microseconds(2300),
                    /*ece=*/true));
  EXPECT_NEAR(cc.ssthresh(), 10.5 * 0.5, 1e-9);
}

TEST(GeminiCC, AdditiveIncreaseScalesWithGainAndRtt) {
  // Plain at the reference RTT: the Reno step.
  tcp::GeminiCC plain(gem_ca());
  plain.on_ack(gem_ack(1, 5, 5, sim::microseconds(300)));
  EXPECT_DOUBLE_EQ(plain.cwnd(), 10.5);
  // MLTCP seam: F scales the step.
  tcp::GeminiCC scaled(gem_ca(), std::make_shared<FixedGain>(2.0));
  scaled.on_ack(gem_ack(1, 5, 5, sim::microseconds(300)));
  EXPECT_DOUBLE_EQ(scaled.cwnd(), 11.0);
  // RTT compensation: a 4x-longer path ramps 4x faster (h = srtt/rtt_ref).
  tcp::GeminiCC faraway(gem_ca());
  faraway.on_ack(gem_ack(1, 5, 5, sim::microseconds(1200)));
  EXPECT_DOUBLE_EQ(faraway.h(), 4.0);
  EXPECT_DOUBLE_EQ(faraway.cwnd(), 12.0);
}

TEST(GeminiCC, SlowStartIsNotGainScaled) {
  // MLTCP (Alg. 1) scales only congestion avoidance; with the default
  // ssthresh the flow is in slow start and doubles regardless of F.
  tcp::GeminiCC cc(tcp::GeminiConfig{}, std::make_shared<FixedGain>(5.0));
  ASSERT_TRUE(cc.in_slow_start());
  cc.on_ack(gem_ack(1, 5, 5, sim::microseconds(300)));
  EXPECT_DOUBLE_EQ(cc.cwnd(), 15.0);
}

TEST(GeminiCC, PacesAtWindowPerSrtt) {
  tcp::GeminiCC cc(gem_ca());
  EXPECT_DOUBLE_EQ(cc.pacing_rate(), 0.0) << "no srtt yet";
  cc.on_ack(gem_ack(1, 5, 5, sim::microseconds(300)));
  EXPECT_NEAR(cc.pacing_rate(), cc.cwnd() / 300e-6, 1e-6);
}

TEST(GeminiCC, AtMostOneLossDecreasePerSrtt) {
  tcp::GeminiCC cc(gem_ca());
  cc.on_ack(gem_ack(sim::milliseconds(1), 5, 5, sim::microseconds(300)));
  cc.on_loss(sim::milliseconds(2));
  EXPECT_NEAR(cc.cwnd(), 5.25, 1e-9);
  cc.on_loss(sim::milliseconds(2) + sim::microseconds(100));
  EXPECT_NEAR(cc.cwnd(), 5.25, 1e-9) << "dupACK train must not stack cuts";
  cc.on_loss(sim::milliseconds(2) + sim::microseconds(400));
  EXPECT_NEAR(cc.cwnd(), 2.625, 1e-9);
}

TEST(GeminiCC, TimeoutCollapsesToFloorAndStampsDecrease) {
  tcp::GeminiCC cc(gem_ca());
  cc.on_ack(gem_ack(sim::milliseconds(1), 5, 5, sim::microseconds(300)));
  cc.on_timeout(sim::milliseconds(2));
  EXPECT_DOUBLE_EQ(cc.cwnd(), 2.0);
  EXPECT_NEAR(cc.ssthresh(), 5.25, 1e-9);
  // The collapse counts as this srtt's decrease.
  cc.on_loss(sim::milliseconds(2) + sim::microseconds(100));
  EXPECT_DOUBLE_EQ(cc.cwnd(), 2.0);
}

TEST(GeminiCC, NameReflectsGain) {
  EXPECT_EQ(tcp::GeminiCC().name(), "gemini");
  tcp::GeminiCC scaled(tcp::GeminiConfig{}, std::make_shared<FixedGain>(2.0));
  EXPECT_EQ(scaled.name(), "mltcp-gemini[fixed]");
}

// ------------------------------------------- Swift / RTO regression fixes

tcp::AckContext swift_ack(sim::SimTime rtt, sim::SimTime now) {
  tcp::AckContext ctx;
  ctx.now = now;
  ctx.num_acked = 1;
  ctx.rtt_sample = rtt;
  return ctx;
}

TEST(SwiftCC, TimeoutClampsToConfiguredFloor) {
  // Regression: the old timeout path reset the window below min_cwnd.
  tcp::SwiftCC cc;
  cc.on_timeout(sim::milliseconds(1));
  EXPECT_DOUBLE_EQ(cc.cwnd(), 2.0);
}

TEST(SwiftCC, TimeoutCountsAsTheDelayIntervalDecrease) {
  // Regression: the timeout collapse never stamped last_decrease_, so a
  // loss arriving within the same delay interval cut the window a second
  // time on top of the collapse.
  tcp::SwiftCC cc;
  // Congested sample: decrease to 6.0, last_delay = 600 us.
  cc.on_ack(swift_ack(sim::microseconds(600), sim::microseconds(700)));
  ASSERT_NEAR(cc.cwnd(), 6.0, 1e-9);
  cc.on_timeout(sim::milliseconds(1));
  ASSERT_DOUBLE_EQ(cc.cwnd(), 2.0);
  // Recover a little; the 250 us sample is below target so the window
  // grows, and it becomes the new decrease interval.
  cc.on_ack(swift_ack(sim::microseconds(250), sim::microseconds(1050)));
  ASSERT_NEAR(cc.cwnd(), 2.5, 1e-9);
  // A loss 200 us after the timeout is inside the interval: no second cut.
  cc.on_loss(sim::microseconds(1200));
  EXPECT_NEAR(cc.cwnd(), 2.5, 1e-9);
  // Once the interval has elapsed the next loss decreases normally.
  cc.on_loss(sim::microseconds(1300));
  EXPECT_NEAR(cc.cwnd(), 2.0, 1e-9);
}

TEST(RttEstimator, FreshSampleCollapsesBackoff) {
  // RFC 6298 (5.7): a backed-off RTO must return to the computed value as
  // soon as a new (un-retransmitted) sample arrives, not persist until the
  // next explicit reset.
  tcp::RttEstimator est;
  est.add_sample(sim::milliseconds(10));
  const sim::SimTime base = est.rto();
  est.backoff();
  est.backoff();
  ASSERT_EQ(est.rto(), base * 4);
  est.add_sample(sim::milliseconds(10));
  EXPECT_EQ(est.backoff_shift(), 0);
  EXPECT_LT(est.rto(), base * 2);
}

TEST(RttEstimator, RttvarNeverDecaysToZero) {
  // Perfectly constant samples decay rttvar geometrically; without a floor
  // it hits zero and the RTO degenerates to srtt exactly — any jitter then
  // fires a spurious retransmission. Floor is one clock tick.
  tcp::RttEstimator est(/*min_rto=*/1, /*max_rto=*/sim::seconds(60));
  for (int i = 0; i < 200; ++i) est.add_sample(sim::microseconds(10));
  EXPECT_GE(est.rttvar(), 1);
  EXPECT_GT(est.rto(), est.srtt());
}

// ------------------------------------------------ end-to-end on the wire

struct LongFlowOutcome {
  double seconds = -1.0;
  std::int64_t max_backlog_bytes = 0;
  tcp::SenderStats stats;
};

LongFlowOutcome run_long_flow(std::unique_ptr<tcp::CongestionControl> cc,
                              net::QueueFactory bottleneck_queue = nullptr) {
  sim::Simulator sim;
  net::DumbbellConfig dc;
  dc.hosts_per_side = 1;
  dc.bottleneck_queue = std::move(bottleneck_queue);
  auto d = net::make_dumbbell(sim, dc);
  tcp::TcpFlow flow(sim, *d.left[0], *d.right[0], 1, std::move(cc));
  sim::SimTime done = -1;
  flow.send_message(30'000'000, [&](sim::SimTime t) { done = t; });
  sim.run_until(sim::seconds(10));
  LongFlowOutcome out;
  out.seconds = done > 0 ? sim::to_seconds(done) : -1.0;
  out.max_backlog_bytes = d.bottleneck->queue().stats().max_backlog_bytes;
  out.stats = flow.sender().stats();
  return out;
}

TEST(TransportZoo, BbrSaturatesTheDumbbell) {
  // 30 MB over the 1 Gb/s bottleneck: wire-rate ideal is ~0.25 s. The
  // pacing seam (pacing_rate() -> sender pace timer) must carry the flow
  // there without window-based ACK clocking.
  const auto bbr = run_long_flow(std::make_unique<tcp::BbrCC>());
  ASSERT_GT(bbr.seconds, 0) << "BBR flow must complete";
  EXPECT_LT(bbr.seconds, 0.32);
}

TEST(TransportZoo, BbrHoldsQueueBelowLossBasedFill) {
  // The headline BBR property: pacing at the estimated bottleneck rate
  // keeps the standing queue near the BDP instead of filling the buffer
  // the way a loss-based controller does.
  const auto bbr = run_long_flow(std::make_unique<tcp::BbrCC>());
  ASSERT_GT(bbr.seconds, 0);
  EXPECT_LT(bbr.max_backlog_bytes, 200'000) << "Reno fills ~250 KB here";
}

TEST(TransportZoo, GeminiSaturatesTheDumbbell) {
  const auto gem = run_long_flow(std::make_unique<tcp::GeminiCC>(),
                                 net::make_ecn_factory(250'000, 30'000));
  ASSERT_GT(gem.seconds, 0) << "Gemini flow must complete";
  EXPECT_LT(gem.seconds, 0.32);
  EXPECT_EQ(gem.stats.timeouts, 0);
}

// --------------------------------------- fluid backend probes the new CCs

TEST(TransportZoo, FluidBackendProbesRateBasedMltcpVariants) {
  // The flow-level backend learns each channel's aggressiveness function by
  // probing one controller instance. BBR and Gemini carry the same
  // MltcpGain seam as the window-based family, so the fluid allocation must
  // favor the flow further into its message exactly as it does for Reno.
  for (const bool use_bbr : {true, false}) {
    sim::Simulator sim;
    net::DumbbellConfig dc;
    dc.hosts_per_side = 2;
    auto d = net::make_dumbbell(sim, dc);
    flowsim::FlowSimulator fs(sim, *d.topology);
    workload::Cluster cluster(sim);
    cluster.set_backend(&fs);

    const core::MltcpConfig cfg;
    const tcp::CcFactory cc = use_bbr ? core::mltcp_bbr_factory(cfg)
                                      : core::mltcp_gemini_factory(cfg);
    workload::Channel* ahead =
        cluster.add_channel({d.left[0], d.right[0], 0}, cc);
    workload::Channel* behind =
        cluster.add_channel({d.left[1], d.right[1], 0}, cc);

    ahead->send_message(10'000'000, [](sim::SimTime) {});
    sim.run_until(sim::milliseconds(60));
    behind->send_message(10'000'000, [](sim::SimTime) {});
    sim.run_until(sim::milliseconds(80));

    const auto rates = fs.current_rates();
    ASSERT_EQ(rates.size(), 2u);
    const flowsim::FlowRate& ra =
        rates[0].flow == ahead->id() ? rates[0] : rates[1];
    const flowsim::FlowRate& rb =
        rates[0].flow == behind->id() ? rates[0] : rates[1];
    EXPECT_GT(ra.weight, rb.weight)
        << (use_bbr ? "bbr" : "gemini")
        << ": F(bytes_ratio) must reach the fluid allocator";
    EXPECT_GT(ra.rate_bps, rb.rate_bps);
  }
}

// -------------------------------------- determinism / byte-identity matrix

/// Observable model state of a transport-zoo run (same scheme as the PDES
/// identity tests): job iteration records plus link/host/switch counters.
std::string zoo_digest(const workload::Cluster& cluster,
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
       << link->packets_transmitted() << '\n';
  }
  for (const net::Host* h : topo.hosts()) {
    os << "host " << h->delivered_packets() << '\n';
  }
  for (const net::Switch* s : topo.switches()) {
    os << "switch " << s->forwarded_packets() << '\n';
  }
  return os.str();
}

std::vector<workload::JobSpec> zoo_specs(const net::Dumbbell& d) {
  // One job per new-controller flavor (plain and MLTCP-augmented for both),
  // so the identity check exercises the pacing seam of every variant.
  std::vector<workload::JobSpec> specs;
  const core::MltcpConfig mcfg;
  const tcp::CcFactory ccs[3] = {
      core::bbr_factory(),
      core::mltcp_bbr_factory(mcfg),
      core::mltcp_gemini_factory(mcfg),
  };
  for (int j = 0; j < 3; ++j) {
    workload::JobSpec spec;
    spec.name = "zoo" + std::to_string(j);
    spec.flows =
        workload::single_flow(d.left[j], d.right[j], 300'000 + 150'000 * j);
    spec.compute_time = sim::milliseconds(2 + j);
    spec.max_iterations = 8;
    spec.cc = ccs[j];
    specs.push_back(spec);
  }
  return specs;
}

std::string zoo_run(bool sharded, pdes::ShardedRunner::Mode mode) {
  sim::Simulator sim;
  net::DumbbellConfig cfg;
  cfg.hosts_per_side = 3;
  auto d = net::make_dumbbell(sim, cfg);
  workload::Cluster cluster(sim);
  const auto specs = zoo_specs(d);
  for (const workload::JobSpec& spec : specs) cluster.add_job(spec);

  const sim::SimTime kEnd = sim::seconds(2);
  if (!sharded) {
    cluster.start_all();
    sim.run_until(kEnd);
  } else {
    pdes::PartitionOptions opts;
    opts.shards = 2;
    opts.co_locate = pdes::co_locate_senders(specs);
    const pdes::Partition part = pdes::partition_topology(*d.topology, opts);
    EXPECT_EQ(part.shards, 2) << "test expects a real split";
    sim.configure_shards(part.shards);
    pdes::ShardedRunner runner(sim, *d.topology, part, mode);
    pdes::start_all_sharded(cluster, specs, sim, part);
    runner.run_until(kEnd);
    EXPECT_GT(sim.events_executed(), 0u);
  }
  return zoo_digest(cluster, *d.topology);
}

TEST(TransportZoo, RateBasedControllersAreByteIdenticalUnderSharding) {
  const std::string serial =
      zoo_run(false, pdes::ShardedRunner::Mode::kCooperative);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, zoo_run(true, pdes::ShardedRunner::Mode::kCooperative));
  EXPECT_EQ(serial, zoo_run(true, pdes::ShardedRunner::Mode::kThreaded));
}

TEST(TransportZoo, CampaignResultsIndependentOfThreadCount) {
  // The cc_family bench runs its variant matrix through run_campaign; the
  // new controllers must produce the same digests whether the campaign is
  // serial or parallel (spec-indexed results, no shared mutable state).
  const std::vector<int> variants = {0, 1, 2, 3};
  const std::function<std::string(const int&, std::size_t)> body =
      [](const int& variant, std::size_t) {
        sim::Simulator sim;
        net::DumbbellConfig dc;
        dc.hosts_per_side = 2;
        auto d = net::make_dumbbell(sim, dc);
        workload::Cluster cluster(sim);
        const core::MltcpConfig mcfg;
        workload::JobSpec spec;
        spec.name = "v" + std::to_string(variant);
        spec.flows = workload::single_flow(d.left[0], d.right[0], 400'000);
        spec.compute_time = sim::milliseconds(2);
        spec.max_iterations = 6;
        switch (variant) {
          case 0: spec.cc = core::bbr_factory(); break;
          case 1: spec.cc = core::mltcp_bbr_factory(mcfg); break;
          case 2: spec.cc = core::gemini_factory(); break;
          default: spec.cc = core::mltcp_gemini_factory(mcfg); break;
        }
        cluster.add_job(spec);
        cluster.start_all();
        sim.run_until(sim::seconds(1));
        return zoo_digest(cluster, *d.topology);
      };
  const auto serial =
      runner::run_campaign(variants, body, runner::CampaignOptions{1});
  const auto parallel =
      runner::run_campaign(variants, body, runner::CampaignOptions{4});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "variant " << i;
  }
}

}  // namespace
}  // namespace mltcp
