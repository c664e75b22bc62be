// Regression tests pinning the TCP hot-path fidelity fixes:
//   - Karn's algorithm: ACKs covering retransmitted segments must not feed
//     the RTT estimator (ambiguous echoed timestamp).
//   - Final-segment sizing: wire bytes match application bytes + headers
//     instead of padding the last segment to a full MTU.
//   - IntervalSet: the SACK scoreboard/Karn bookkeeping structure.
//   - RED idle decay: the EWMA queue average ages across idle periods.
//   - SACK stress: interval-based recovery completes under heavy loss.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/queue.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "tcp/flow.hpp"
#include "tcp/interval_set.hpp"
#include "tcp/reno.hpp"
#include "tcp/sender.hpp"

namespace mltcp::tcp {
namespace {

// ------------------------------------------------------------ IntervalSet

TEST(IntervalSet, InsertMergesOverlappingAndAdjacent) {
  IntervalSet s;
  s.insert(10, 20);
  s.insert(30, 40);
  EXPECT_EQ(s.interval_count(), 2u);
  s.insert(20, 30);  // adjacent on both sides: everything merges
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.covered_count(), 30);
  EXPECT_TRUE(s.contains(10));
  EXPECT_TRUE(s.contains(39));
  EXPECT_FALSE(s.contains(40));
  EXPECT_FALSE(s.contains(9));
}

TEST(IntervalSet, InsertSwallowsMultipleIntervals) {
  IntervalSet s;
  s.insert(0, 2);
  s.insert(4, 6);
  s.insert(8, 10);
  s.insert(1, 9);  // bridges all three
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.covered_count(), 10);
}

TEST(IntervalSet, EraseSplitsInterval) {
  IntervalSet s;
  s.insert(0, 10);
  s.erase(3, 7);
  EXPECT_EQ(s.interval_count(), 2u);
  EXPECT_TRUE(s.contains(2));
  EXPECT_FALSE(s.contains(3));
  EXPECT_FALSE(s.contains(6));
  EXPECT_TRUE(s.contains(7));
  EXPECT_EQ(s.covered_count(), 6);
}

TEST(IntervalSet, EraseAcrossSeveralIntervals) {
  IntervalSet s;
  s.insert(0, 4);
  s.insert(6, 10);
  s.insert(12, 16);
  s.erase(2, 14);
  EXPECT_EQ(s.covered_count(), 4);  // [0,2) and [14,16)
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(15));
  EXPECT_FALSE(s.overlaps(2, 14));
}

TEST(IntervalSet, EraseBelowPrunesAndTrims) {
  IntervalSet s;
  s.insert(0, 5);
  s.insert(8, 12);
  s.erase_below(10);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_FALSE(s.contains(9));
  EXPECT_TRUE(s.contains(10));
  EXPECT_TRUE(s.contains(11));
  s.erase_below(100);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.upper_bound_value(), 0);
}

TEST(IntervalSet, FirstMissingWalksGaps) {
  IntervalSet s;
  s.insert(0, 3);
  s.insert(5, 8);
  EXPECT_EQ(s.first_missing(0, 10), 3);
  EXPECT_EQ(s.first_missing(3, 10), 3);
  EXPECT_EQ(s.first_missing(4, 10), 4);
  EXPECT_EQ(s.first_missing(5, 8), 8);  // fully covered -> `to`
  EXPECT_EQ(s.first_missing(6, 10), 8);
  EXPECT_EQ(s.upper_bound_value(), 8);
}

TEST(IntervalSet, OverlapsHalfOpenSemantics) {
  IntervalSet s;
  s.insert(5, 10);
  EXPECT_TRUE(s.overlaps(0, 6));
  EXPECT_TRUE(s.overlaps(9, 20));
  EXPECT_FALSE(s.overlaps(0, 5));   // end is exclusive
  EXPECT_FALSE(s.overlaps(10, 20));
  EXPECT_FALSE(s.overlaps(7, 7));   // empty range
}

TEST(IntervalSet, RandomizedDifferentialAgainstSetOfValues) {
  // Every operation against a std::set of the covered values, over a small
  // range so inserts and erases keep merging, splitting and pruning.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937_64 rng(seed);
    const auto draw = [&rng](std::int64_t n) {
      return static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(n));
    };
    IntervalSet s;
    std::set<std::int64_t> ref;
    for (int step = 0; step < 4000; ++step) {
      const std::int64_t a = draw(200);
      const std::int64_t b = a + draw(12) - 2;  // Sometimes empty or reversed.
      switch (draw(10)) {
        case 0:
        case 1:
        case 2:
        case 3:
          s.insert(a, b);
          for (std::int64_t v = a; v < b; ++v) ref.insert(v);
          break;
        case 4:
        case 5:
          s.erase(a, b);
          if (a < b) ref.erase(ref.lower_bound(a), ref.lower_bound(b));
          break;
        case 6:
          s.erase_below(a / 4);  // Mostly small bounds, so the set persists.
          ref.erase(ref.begin(), ref.lower_bound(a / 4));
          break;
        case 7:
          if (draw(20) == 0) {
            s.clear();
            ref.clear();
          }
          break;
        default:
          break;
      }
      ASSERT_EQ(s.contains(a), ref.count(a) == 1) << "step " << step;
      const auto it = ref.lower_bound(a);
      ASSERT_EQ(s.overlaps(a, b), a < b && it != ref.end() && *it < b)
          << "step " << step;
      std::int64_t missing = a;
      while (missing < b && ref.count(missing) == 1) ++missing;
      ASSERT_EQ(s.first_missing(a, b), a < b ? missing : b) << "step " << step;
      ASSERT_EQ(s.upper_bound_value(), ref.empty() ? 0 : *ref.rbegin() + 1);
      ASSERT_EQ(s.covered_count(), static_cast<std::int64_t>(ref.size()));
      // The intervals are the maximal runs of the reference, in order.
      std::vector<IntervalSet::Interval> runs;
      for (const std::int64_t v : ref) {
        if (!runs.empty() && runs.back().second == v) {
          ++runs.back().second;
        } else {
          runs.emplace_back(v, v + 1);
        }
      }
      ASSERT_EQ(s.intervals(), runs) << "step " << step;
      ASSERT_EQ(s.interval_count(), runs.size());
      ASSERT_EQ(s.empty(), ref.empty());
    }
  }
}

// ------------------------------------------------- sender-side ACK harness

/// Direct access to a TcpSender: data packets it emits are captured at host
/// `b`, and the test crafts ACK packets (cumulative seq + echoed timestamp)
/// delivered back to it, so retransmission-ambiguity cases are exact.
struct SenderWire {
  sim::Simulator sim;
  net::Topology topo{sim};
  net::Host* a = nullptr;
  net::Host* b = nullptr;
  std::unique_ptr<TcpSender> sender;
  std::vector<net::Packet> data;

  explicit SenderWire(SenderConfig cfg = {}) {
    a = topo.add_host("a");
    b = topo.add_host("b");
    topo.connect(*a, *b, 1e9, sim::microseconds(1),
                 net::make_droptail_factory(1'000'000));
    sender = std::make_unique<TcpSender>(sim, *a, b->id(), 1,
                                         std::make_unique<RenoCC>(), cfg);
    b->register_flow(1, [this](const net::Packet& p) { data.push_back(p); });
    a->register_flow(1, [this](const net::Packet& p) {
      sender->on_packet(p);
    });
  }

  /// Runs the wire for `dt` (short of the 1 ms min RTO, so no timeouts).
  void step(sim::SimTime dt = sim::microseconds(100)) {
    sim.run_until(sim.now() + dt);
  }

  void ack(std::int64_t cumulative_seq, sim::SimTime echoed_ts) {
    net::Packet p;
    p.flow = 1;
    p.dst = a->id();
    p.type = net::PacketType::kAck;
    p.seq = cumulative_seq;
    p.tx_timestamp = echoed_ts;
    b->send(p);
    step();
  }
};

TEST(KarnAlgorithm, AmbiguousAckDoesNotFeedRttEstimator) {
  SenderWire w;
  w.sender->send_message(30 * w.sender->payload_per_segment(),
                         [](sim::SimTime) {});
  // Initial window (10 segments) reaches b: 10 x 12us serialization + 1us.
  w.step(sim::microseconds(200));
  ASSERT_GE(w.data.size(), 10u);

  // Clean ACK of segment 0 with a crafted echoed timestamp (the segments
  // themselves were stamped at t=0, which the sampler treats as "no echo").
  w.ack(1, sim::microseconds(2));
  ASSERT_TRUE(w.sender->rtt().has_sample());
  const sim::SimTime srtt_clean = w.sender->rtt().srtt();
  const sim::SimTime rto_clean = w.sender->rtt().rto();
  ASSERT_GT(srtt_clean, 0);

  // Three dup ACKs: fast retransmit of segment 1.
  w.ack(1, 0);
  w.ack(1, 0);
  w.ack(1, 0);
  EXPECT_EQ(w.sender->stats().fast_retransmits, 1);
  EXPECT_EQ(w.sender->stats().retransmissions, 1);
  EXPECT_TRUE(w.sender->in_recovery());
  const std::int64_t recover = w.sender->next_seq();  // recovery exit point

  // Ambiguous cumulative ACK covering the retransmitted segment, echoing a
  // stale (original-transmission era) timestamp. Before the fix this
  // inflated srtt/RTO right after loss; now it must be discarded.
  w.ack(5, sim::microseconds(3));
  EXPECT_EQ(w.sender->stats().rtt_samples_karn_skipped, 1);
  EXPECT_EQ(w.sender->rtt().srtt(), srtt_clean);
  EXPECT_EQ(w.sender->rtt().rto(), rto_clean);

  // Once the ACK range no longer covers any retransmitted segment, samples
  // flow into the estimator again. (The partial ACK above retransmitted the
  // new front hole, so first exit recovery, then ACK clean new data.)
  const std::int64_t skipped = w.sender->stats().rtt_samples_karn_skipped;
  w.ack(recover, 0);  // exits recovery; no echo -> no sample either way
  ASSERT_FALSE(w.sender->in_recovery());
  w.step(sim::microseconds(300));
  w.ack(recover + 1, w.sim.now() - sim::microseconds(50));
  EXPECT_EQ(w.sender->stats().rtt_samples_karn_skipped, skipped);
  EXPECT_NE(w.sender->rtt().srtt(), srtt_clean);
}

TEST(KarnAlgorithm, RtoRewindMarksResentSegmentsAmbiguous) {
  SenderWire w;
  w.sender->send_message(5 * w.sender->payload_per_segment(),
                         [](sim::SimTime) {});
  w.step();
  ASSERT_EQ(w.data.size(), 5u);
  w.ack(1, sim::microseconds(2));
  ASSERT_TRUE(w.sender->rtt().has_sample());
  const sim::SimTime srtt_clean = w.sender->rtt().srtt();

  // Let the RTO fire: the sender rewinds and resends from snd_una_.
  w.step(sim::milliseconds(30));
  ASSERT_GE(w.sender->stats().timeouts, 1);
  ASSERT_GT(w.sender->stats().retransmissions, 0);

  // ACK the whole stream with a fresh-looking echo: the range covers the
  // go-back-N retransmissions, so Karn must still discard the sample.
  const std::int64_t skipped_before =
      w.sender->stats().rtt_samples_karn_skipped;
  w.ack(5, w.sim.now() - sim::microseconds(10));
  EXPECT_GT(w.sender->stats().rtt_samples_karn_skipped, skipped_before);
  EXPECT_EQ(w.sender->rtt().srtt(), srtt_clean);
}

// ------------------------------------------------- final-segment sizing

struct BytePipe {
  sim::Simulator sim;
  net::Dumbbell d;
  std::unique_ptr<TcpFlow> flow;
  std::int64_t wire_bytes = 0;
  std::int64_t data_packets = 0;

  BytePipe() {
    net::DumbbellConfig cfg;
    cfg.hosts_per_side = 1;
    d = net::make_dumbbell(sim, cfg);
    flow = std::make_unique<TcpFlow>(sim, *d.left[0], *d.right[0], 1,
                                     std::make_unique<RenoCC>());
    d.bottleneck->add_tx_observer(
        [this](const net::Packet& pkt, sim::SimTime) {
          if (pkt.type == net::PacketType::kData) {
            wire_bytes += pkt.size_bytes;
            ++data_packets;
          }
        });
  }
};

TEST(FinalSegmentSizing, WireBytesMatchMessageBytesPlusHeaders) {
  BytePipe p;
  // 3000 B at 1460 B payload: segments of 1460 + 1460 + 80 payload.
  const std::int64_t message = 3000;
  sim::SimTime done = -1;
  p.flow->send_message(message, [&](sim::SimTime t) { done = t; });
  p.sim.run();
  ASSERT_GT(done, 0);
  ASSERT_EQ(p.data_packets, 3);
  EXPECT_EQ(p.wire_bytes, message + 3 * net::kHeaderBytes);
}

TEST(FinalSegmentSizing, ExactMultipleStillFullMtu) {
  BytePipe p;
  const std::int64_t payload = p.flow->sender().payload_per_segment();
  sim::SimTime done = -1;
  p.flow->send_message(2 * payload, [&](sim::SimTime t) { done = t; });
  p.sim.run();
  ASSERT_GT(done, 0);
  ASSERT_EQ(p.data_packets, 2);
  EXPECT_EQ(p.wire_bytes, 2 * net::kDefaultMtu);
}

TEST(FinalSegmentSizing, BackToBackMessagesEachCarryTheirRemainder) {
  BytePipe p;
  sim::SimTime done = -1;
  p.flow->send_message(2000, [](sim::SimTime) {});
  p.flow->send_message(100, [&](sim::SimTime t) { done = t; });
  p.sim.run();
  ASSERT_GT(done, 0);
  // 1460 + 540 + 100 payload across three segments.
  ASSERT_EQ(p.data_packets, 3);
  EXPECT_EQ(p.wire_bytes, 2000 + 100 + 3 * net::kHeaderBytes);
}

TEST(FinalSegmentSizing, QueuedMessagesCompleteInOrderAcrossRingGrowth) {
  // Forty messages queued at once grow the sender's message ring from one
  // slot; the next batch wraps it, and a third, posted from a completion
  // callback, grows it again mid-wrap. Every message completes once, in
  // order, and each segment carries exactly its share of its message.
  BytePipe p;
  const std::int64_t mss = p.flow->sender().payload_per_segment();
  std::vector<std::int64_t> expected;  // Payload per segment, in seq order.
  std::vector<std::int64_t> seen;      // Payload per seq as transmitted.
  std::vector<int> order;
  std::int64_t total = 0;
  int posted = 0;
  p.d.bottleneck->add_tx_observer([&](const net::Packet& pkt, sim::SimTime) {
    if (pkt.type != net::PacketType::kData) return;
    const auto seq = static_cast<std::size_t>(pkt.seq);
    if (seen.size() <= seq) seen.resize(seq + 1, -1);
    const std::int64_t payload = pkt.size_bytes - net::kHeaderBytes;
    if (seen[seq] >= 0) {
      EXPECT_EQ(seen[seq], payload) << "retransmitted seq " << seq;
    }
    seen[seq] = payload;
  });
  std::function<void(int)> post_batch = [&](int n) {
    for (int i = 0; i < n; ++i, ++posted) {
      // Every fifth message is a whole number of segments; the others end
      // in a short segment of a varying size.
      const std::int64_t bytes = posted % 5 == 0
                                     ? (1 + posted % 3) * mss
                                     : (posted % 3) * mss + 1 +
                                           (posted * 389) % (mss - 1);
      for (std::int64_t left = bytes; left > 0; left -= mss) {
        expected.push_back(std::min(left, mss));
      }
      total += bytes;
      const int index = posted;
      p.flow->send_message(bytes, [&, index](sim::SimTime) {
        order.push_back(index);
        if (index == 60) post_batch(60);  // 29 still queued: grows mid-wrap.
      });
    }
  };
  post_batch(40);
  p.sim.run();
  ASSERT_EQ(order.size(), 40u);
  post_batch(50);  // Head at 40 of 64 slots: the batch wraps.
  p.sim.run();

  ASSERT_EQ(posted, 150);
  ASSERT_EQ(order.size(), 150u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i], static_cast<int>(i));
  }
  EXPECT_EQ(p.flow->sender().stats().messages_completed, 150);
  EXPECT_EQ(seen, expected);
  std::int64_t delivered = 0;
  for (const std::int64_t b : seen) delivered += b;
  EXPECT_EQ(delivered, total);
}

// ----------------------------------------------------------- message size

TEST(MessageSize, TcpSenderRejectsEmptyAndNegativeMessages) {
  // An empty message occupies no segment, so no ACK would ever complete
  // it and its poster would wait forever: reject it, naming flow and size.
  BytePipe p;
  for (const std::int64_t bytes : {std::int64_t{0}, std::int64_t{-5}}) {
    try {
      p.flow->send_message(bytes, [](sim::SimTime) {});
      ADD_FAILURE() << bytes << " bytes accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("flow 1"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(bytes) + " bytes"), std::string::npos)
          << what;
    }
  }
  // The rejected posts left the connection as it was.
  sim::SimTime done = -1;
  p.flow->send_message(3000, [&](sim::SimTime t) { done = t; });
  p.sim.run();
  EXPECT_GT(done, 0);
  EXPECT_EQ(p.flow->sender().stats().messages_completed, 1);
  EXPECT_EQ(p.wire_bytes, 3000 + 3 * net::kHeaderBytes);
}

// ------------------------------------------------------- RED idle decay

TEST(RedIdleDecay, AverageDecaysAcrossIdlePeriod) {
  net::RedQueue::Config cfg;
  cfg.ewma_weight = 0.5;  // fast EWMA so a short burst raises the average
  cfg.idle_pkt_time = sim::microseconds(12);
  net::RedQueue q(cfg);

  net::Packet pkt;
  pkt.type = net::PacketType::kData;
  pkt.size_bytes = 1500;
  for (int i = 0; i < 20; ++i) q.enqueue(pkt, sim::microseconds(i));
  const double avg_busy = q.average_queue_bytes();
  ASSERT_GT(avg_busy, 1500.0);

  sim::SimTime now = sim::microseconds(20);
  while (!q.empty()) q.dequeue(now);

  // One second idle is ~83k idle-packet times: the average must be ~0.
  now += sim::seconds(1);
  q.enqueue(pkt, now);
  EXPECT_LT(q.average_queue_bytes(), avg_busy * 1e-3);
}

TEST(RedIdleDecay, DisabledWithZeroIdlePktTime) {
  net::RedQueue::Config cfg;
  cfg.ewma_weight = 0.5;
  cfg.idle_pkt_time = 0;
  net::RedQueue q(cfg);

  net::Packet pkt;
  pkt.type = net::PacketType::kData;
  pkt.size_bytes = 1500;
  for (int i = 0; i < 20; ++i) q.enqueue(pkt, sim::microseconds(i));
  const double avg_busy = q.average_queue_bytes();

  sim::SimTime now = sim::microseconds(20);
  while (!q.empty()) q.dequeue(now);
  now += sim::seconds(1);
  q.enqueue(pkt, now);
  // With decay disabled the stale average persists (the pre-fix behavior,
  // kept reachable for comparison).
  EXPECT_GE(q.average_queue_bytes(), avg_busy * 0.5);
}

// ------------------------------------------------- recovery-exit window

TEST(RecoveryExit, FullAckCreditsOneAckOfGrowthNotTheWholeEpisode) {
  SenderWire w;
  w.sender->send_message(60 * w.sender->payload_per_segment(),
                         [](sim::SimTime) {});
  w.step(sim::microseconds(200));
  ASSERT_GE(w.data.size(), 10u);
  w.ack(1, sim::microseconds(2));

  // Three dup ACKs: fast retransmit, window halves to ssthresh.
  w.ack(1, 0);
  w.ack(1, 0);
  w.ack(1, 0);
  ASSERT_TRUE(w.sender->in_recovery());
  const std::int64_t recover = w.sender->next_seq();
  const double cwnd_in_recovery = w.sender->cc().cwnd();
  const double ssthresh = w.sender->cc().ssthresh();
  ASSERT_GT(recover, 2);  // the exit ACK spans many segments

  // The full ACK exits recovery covering the whole episode (~recover
  // segments). RFC 6582: the window exits at ~ssthresh; crediting every
  // covered segment to congestion avoidance would add recover/cwnd segments
  // in one step. The fix bounds the exit credit to a single ACK's worth.
  w.ack(recover, 0);
  ASSERT_FALSE(w.sender->in_recovery());
  const double cwnd_after = w.sender->cc().cwnd();
  EXPECT_GE(cwnd_after, ssthresh) << "window deflated across recovery exit";
  EXPECT_LE(cwnd_after, cwnd_in_recovery + 1.0 / cwnd_in_recovery + 1e-9)
      << "recovery exit inflated cwnd beyond one ACK of CA growth";
}

TEST(RecoveryExit, PartialAcksStillFeedMltcpByteAccounting) {
  // Partial ACKs freeze the window but Algorithm 1 line 7 counts every
  // acknowledged byte: the gain hook must see them even in recovery.
  struct CountingGain : WindowGain {
    int acked = 0;
    void on_ack(const AckContext& ctx) override { acked += ctx.num_acked; }
  };
  auto gain = std::make_shared<CountingGain>();
  SenderWire w;
  w.sender = std::make_unique<TcpSender>(
      w.sim, *w.a, w.b->id(), 1, std::make_unique<RenoCC>(RenoConfig{}, gain));
  w.a->register_flow(1,
                     [&w](const net::Packet& p) { w.sender->on_packet(p); });
  w.sender->send_message(60 * w.sender->payload_per_segment(),
                         [](sim::SimTime) {});
  w.step(sim::microseconds(200));
  w.ack(1, sim::microseconds(2));
  w.ack(1, 0);
  w.ack(1, 0);
  w.ack(1, 0);
  ASSERT_TRUE(w.sender->in_recovery());

  // A partial ACK (3 new segments, below the recovery point).
  const int before = gain->acked;
  w.ack(4, 0);
  ASSERT_TRUE(w.sender->in_recovery());
  EXPECT_EQ(gain->acked, before + 3)
      << "partial ACK's bytes were lost to the iteration tracker";
}

// ----------------------------------------------------------- SACK stress

TEST(SackScoreboard, HeavyLossTransferCompletesWithIntervalBookkeeping) {
  sim::Simulator sim;
  net::DumbbellConfig dc;
  dc.hosts_per_side = 1;
  dc.bottleneck_delay = sim::milliseconds(1);
  dc.bottleneck_queue = net::make_random_drop_factory(0.05, 512 * 1500, 17);
  auto d = net::make_dumbbell(sim, dc);
  SenderConfig scfg;
  scfg.use_sack = true;
  TcpFlow flow(sim, *d.left[0], *d.right[0], 1, std::make_unique<RenoCC>(),
               scfg);
  sim::SimTime done = -1;
  const std::int64_t bytes = 5'000'000;
  flow.send_message(bytes, [&](sim::SimTime t) { done = t; });
  sim.run_until(sim::seconds(120));
  ASSERT_GT(done, 0) << "SACK transfer never completed under 5% loss";
  EXPECT_EQ(flow.receiver().rcv_next(), flow.sender().segments_for_bytes(bytes));
  EXPECT_GT(flow.sender().stats().retransmissions, 0);
  EXPECT_TRUE(flow.sender().idle());
}

}  // namespace
}  // namespace mltcp::tcp
