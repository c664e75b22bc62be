// Property-style parameterized sweeps: invariants that must hold across the
// whole configuration space, not just hand-picked points.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "core/mltcp.hpp"
#include "net/topology.hpp"
#include "sched/centralized.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tcp/flow.hpp"

namespace mltcp {
namespace {

// ---------------------------------------------------------------- queues

/// Conservation: every packet offered to a queue is either dropped, still
/// backlogged, or has been dequeued — for every discipline. The kind is a
/// std::string, not a const char*: gtest prints a pointer inside a tuple as
/// its address, and the test names would change from run to run.
class QueueConservation
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

std::unique_ptr<net::QueueDiscipline> make_queue(const std::string& kind) {
  if (kind == "droptail") return net::make_droptail_factory(20 * 1500)();
  if (kind == "ecn") return net::make_ecn_factory(20 * 1500, 5 * 1500)();
  if (kind == "pfabric") return net::make_pfabric_factory(20 * 1500)();
  if (kind == "drr") return net::make_drr_factory(20 * 1500)();
  if (kind == "red") {
    net::RedQueue::Config cfg;
    cfg.capacity_bytes = 20 * 1500;
    cfg.min_threshold_bytes = 5 * 1500;
    cfg.max_threshold_bytes = 15 * 1500;
    return net::make_red_factory(cfg)();
  }
  if (kind == "lossy") {
    return net::make_random_drop_factory(0.3, 20 * 1500, 3)();
  }
  ADD_FAILURE() << "unknown queue kind " << kind;
  return nullptr;
}

TEST_P(QueueConservation, OfferedEqualsDroppedPlusServedPlusBacklog) {
  const auto [kind, offered] = GetParam();
  auto q = make_queue(kind);
  ASSERT_NE(q, nullptr);

  for (int i = 0; i < offered; ++i) {
    net::Packet p;
    p.type = net::PacketType::kData;
    p.flow = i % 3;
    p.seq = i;
    p.size_bytes = 1500;
    p.priority = (i * 37) % 1000;
    p.ecn_capable = (i % 2) == 0;
    q->enqueue(p, i);
  }
  const std::int64_t backlog =
      static_cast<std::int64_t>(q->backlog_packets());
  std::int64_t served = 0;
  while (q->dequeue(0).has_value()) ++served;

  // Conservation: every offered packet was served, dropped (including
  // pFabric evictions of already-admitted packets) or counted as backlog.
  EXPECT_EQ(served + q->stats().dropped_packets, offered);
  EXPECT_EQ(served, backlog);
  EXPECT_TRUE(q->empty());
  EXPECT_EQ(q->backlog_bytes(), 0);
  // Half the offered packets are ECN-capable: drop-tail must not mark them.
  if (kind == "droptail") {
    EXPECT_EQ(q->stats().marked_packets, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDisciplines, QueueConservation,
    ::testing::Combine(::testing::Values("droptail", "ecn", "pfabric", "drr",
                                         "red", "lossy"),
                       ::testing::Values(10, 100)));

// ------------------------------------------------------------- transport

/// Reliability: a transfer completes and delivers every segment exactly
/// once, for every congestion controller and loss rate (std::string kind,
/// as in QueueConservation, so the test names stay fixed).
class TransportReliability
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

tcp::CcFactory make_cc(const std::string& kind) {
  core::MltcpConfig mcfg;
  mcfg.tracker.total_bytes = 2'000'000;
  mcfg.tracker.comp_time = sim::milliseconds(100);
  if (kind == "reno") return core::reno_factory();
  if (kind == "cubic") return core::cubic_factory();
  if (kind == "dctcp") return core::dctcp_factory();
  if (kind == "swift") return core::swift_factory();
  if (kind == "mltcp-reno") return core::mltcp_reno_factory(mcfg);
  if (kind == "mltcp-cubic") return core::mltcp_cubic_factory(mcfg);
  if (kind == "mltcp-dctcp") return core::mltcp_dctcp_factory(mcfg);
  if (kind == "mltcp-swift") return core::mltcp_swift_factory(mcfg);
  ADD_FAILURE() << "unknown cc " << kind;
  return nullptr;
}

TEST_P(TransportReliability, DeliversExactlyOnceUnderLoss) {
  const auto [cc_kind, loss] = GetParam();
  sim::Simulator sim;
  net::DumbbellConfig dc;
  dc.hosts_per_side = 1;
  dc.bottleneck_queue =
      net::make_random_drop_factory(loss, 512 * 1500, 1234);
  auto d = net::make_dumbbell(sim, dc);
  tcp::TcpFlow flow(sim, *d.left[0], *d.right[0], 1, make_cc(cc_kind)());

  const std::int64_t bytes = 2'000'000;
  sim::SimTime done = -1;
  flow.send_message(bytes, [&](sim::SimTime t) { done = t; });
  sim.run_until(sim::seconds(120));

  ASSERT_GT(done, 0) << cc_kind << " never completed at loss " << loss;
  EXPECT_EQ(flow.receiver().rcv_next(),
            flow.sender().segments_for_bytes(bytes));
  EXPECT_TRUE(flow.sender().idle());
  EXPECT_EQ(flow.sender().stats().messages_completed, 1);
}

INSTANTIATE_TEST_SUITE_P(
    CcByLoss, TransportReliability,
    ::testing::Combine(::testing::Values("reno", "cubic", "dctcp", "swift",
                                         "mltcp-reno", "mltcp-cubic",
                                         "mltcp-dctcp", "mltcp-swift"),
                       ::testing::Values(0.0, 0.01)));

/// cwnd positivity: no controller ever drives its window below 1 segment
/// under an adversarial event mix.
class WindowPositivity : public ::testing::TestWithParam<const char*> {};

TEST_P(WindowPositivity, WindowStaysUsable) {
  auto cc = make_cc(GetParam())();
  sim::SimTime now = 0;
  std::int64_t seq = 0;
  for (int round = 0; round < 200; ++round) {
    now += sim::microseconds(100);
    tcp::AckContext ctx;
    ctx.now = now;
    ctx.num_acked = 1 + round % 3;
    seq += ctx.num_acked;
    ctx.ack_seq = seq;
    ctx.ece = (round % 5) == 0;
    ctx.rtt_sample = sim::microseconds(100 + (round % 7) * 150);
    cc->on_ack(ctx);
    if (round % 11 == 0) cc->on_loss(now);
    if (round % 47 == 0) cc->on_timeout(now);
    if (round % 31 == 0) cc->on_idle_restart(now);
    ASSERT_GE(cc->cwnd(), 1.0) << GetParam() << " round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(AllControllers, WindowPositivity,
                         ::testing::Values("reno", "cubic", "dctcp", "swift",
                                           "mltcp-reno", "mltcp-cubic",
                                           "mltcp-dctcp", "mltcp-swift"));

// ------------------------------------------------------------- optimizer

/// The centralized optimizer must find a zero-excess schedule whenever the
/// jobs are identical and their total communication fits the circle.
class OptimizerFeasibility : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerFeasibility, PacksIdenticalJobsUpToCapacity) {
  const int n = GetParam();
  const double a = 0.9 / n;
  std::vector<sched::PeriodicDemand> jobs;
  for (int i = 0; i < n; ++i) {
    jobs.push_back(sched::PeriodicDemand{
        "j" + std::to_string(i), sim::from_seconds(1.8),
        sim::from_seconds(1.8 * a)});
  }
  const auto schedule = sched::optimize_interleaving(jobs);
  EXPECT_EQ(schedule.excess, 0) << n << " jobs";
}

INSTANTIATE_TEST_SUITE_P(JobCounts, OptimizerFeasibility,
                         ::testing::Values(2, 3, 4, 6, 8));

// -------------------------------------------------------------- tracker

/// Algorithm 1 invariant: bytes_ratio stays in [0, 1] for any ACK pattern.
class TrackerBounds : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TrackerBounds, RatioAlwaysInUnitInterval) {
  core::TrackerConfig cfg;
  cfg.total_bytes = GetParam();
  cfg.comp_time = sim::milliseconds(10);
  core::IterationTracker tracker(cfg);
  sim::Rng rng(5);
  sim::SimTime now = 0;
  for (int i = 0; i < 5000; ++i) {
    now += rng.uniform_int(1, 30'000'000);  // 1 ns .. 30 ms gaps
    tracker.on_ack(static_cast<int>(rng.uniform_int(1, 64)), now);
    ASSERT_GE(tracker.bytes_ratio(), 0.0);
    ASSERT_LE(tracker.bytes_ratio(), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(TotalBytes, TrackerBounds,
                         ::testing::Values(1500, 150'000, 1'000'000'000));

}  // namespace
}  // namespace mltcp
