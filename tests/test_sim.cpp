#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace mltcp::sim {
namespace {

// ------------------------------------------------------------------- time

TEST(Time, UnitConversions) {
  EXPECT_EQ(microseconds(1), 1000);
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(7)), 7.0);
}

TEST(Time, FromSecondsRoundsToNearest) {
  EXPECT_EQ(from_seconds(1.0), seconds(1));
  EXPECT_EQ(from_seconds(0.5), milliseconds(500));
  EXPECT_EQ(from_seconds(1e-9), 1);
}

TEST(Time, TransmissionTime) {
  // 1500 bytes at 1 Gbps = 12 microseconds.
  EXPECT_EQ(transmission_time(1500, 1e9), microseconds(12));
  // 125 MB at 1 Gbps = 1 second.
  EXPECT_EQ(transmission_time(125'000'000, 1e9), seconds(1));
}

TEST(Time, Format) {
  EXPECT_EQ(format_time(seconds(2)), "2.000s");
  EXPECT_EQ(format_time(milliseconds(3)), "3.000ms");
  EXPECT_EQ(format_time(microseconds(4)), "4.000us");
  EXPECT_EQ(format_time(42), "42ns");
}

// ------------------------------------------------------------- event queue

TEST(EventQueue, FiresInTimestampOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimestampsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(kInvalidEventId));
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, CancelAlreadyFiredIsNoop) {
  EventQueue q;
  const EventId id = q.schedule(1, [] {});
  q.pop_and_run();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(EventQueue, PendingTracksLifecycle) {
  EventQueue q;
  const EventId id = q.schedule(10, [] {});
  EXPECT_TRUE(q.pending(id));
  q.pop_and_run();
  EXPECT_FALSE(q.pending(id));
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  int count = 0;
  q.schedule(1, [&] {
    ++count;
    q.schedule(2, [&] { ++count; });
  });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(count, 2);
}

TEST(EventQueue, NextTimeEmptyIsInfinity) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

// -------------------------------------------------------------- simulator

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule(milliseconds(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, milliseconds(5));
  EXPECT_EQ(sim.now(), milliseconds(5));
}

TEST(Simulator, RelativeSchedulingAccumulates) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule(10, [&] {
    times.push_back(sim.now());
    sim.schedule(10, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20}));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StopAbortsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(20, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule(10, [&] {
    sim.schedule(-5, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 10);
}

TEST(Simulator, EventsExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double m = sum / n;
  const double var = sum_sq / n - m * m;
  EXPECT_NEAR(m, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(13);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(17);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u32() == child.next_u32()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

// ------------------------------------------------------------- rate binner

TEST(RateBinner, BinsBytesIntoRates) {
  RateBinner binner(milliseconds(10));
  // 1250 bytes in a 10ms bin = 1250*8/0.01 = 1 Mbps.
  binner.add(milliseconds(5), 1250);
  EXPECT_DOUBLE_EQ(binner.rate_bps(0), 1'000'000.0);
  EXPECT_DOUBLE_EQ(binner.rate_bps(1), 0.0);
}

TEST(RateBinner, AccumulatesWithinBin) {
  RateBinner binner(milliseconds(1));
  binner.add(100, 500);
  binner.add(200, 500);
  EXPECT_DOUBLE_EQ(binner.rate_bps(0), 1000 * 8 / 0.001);
  EXPECT_EQ(binner.total_bytes(), 1000);
}

TEST(RateBinner, LateBinsExtendVector) {
  RateBinner binner(milliseconds(1));
  binner.add(milliseconds(99), 100);
  EXPECT_EQ(binner.bin_count(), 100u);
  EXPECT_GT(binner.rate_bps(99), 0.0);
}

// ------------------------------------------------------------------- ring

/// Shaped like a channel's queued message: a size and a completion whose
/// captures the ring must release when the message leaves it.
struct RingMessage {
  std::int64_t bytes = 0;
  std::function<void(SimTime)> done;
};

TEST(Ring, MessageFifoSurvivesWraparoundAndEveryGrowth) {
  Ring<RingMessage> ring;
  std::int64_t pushed = 0;
  std::int64_t popped = 0;
  std::int64_t completed = 0;
  const auto push = [&] {
    ring.push_back(RingMessage{pushed++, [&completed](SimTime) {
                                 ++completed;
                               }});
  };
  const auto pop = [&] {
    ASSERT_EQ(ring.front().bytes, popped++);
    RingMessage m = std::move(ring.front());
    ring.pop_front();
    m.done(0);
  };
  // The backlog deepens by one each round while the head keeps advancing,
  // so the contents have wrapped before each growth (1, 2, 4, ..., 64).
  for (int depth = 1; depth <= 40; ++depth) {
    while (ring.size() < static_cast<std::size_t>(depth)) push();
    for (int i = 0; i < 3; ++i) {
      pop();
      push();
    }
    for (std::size_t i = 0; i < ring.size(); ++i) {
      ASSERT_EQ(ring[i].bytes, popped + static_cast<std::int64_t>(i));
    }
    const std::size_t cap = ring.capacity();
    EXPECT_EQ(cap & (cap - 1), 0u);
    EXPECT_GE(cap, ring.size());
  }
  EXPECT_EQ(ring.capacity(), 64u);
  while (!ring.empty()) pop();
  EXPECT_EQ(popped, pushed);
  EXPECT_EQ(completed, pushed);
}

TEST(Ring, EmptyRingOwnsNoStorageAndGrowsFromOneSlot) {
  Ring<RingMessage> ring;
  EXPECT_EQ(ring.capacity(), 0u);
  EXPECT_TRUE(ring.empty());
  ring.push_back(RingMessage{1, nullptr});
  EXPECT_EQ(ring.capacity(), 1u);
  ring.push_back(RingMessage{2, nullptr});
  EXPECT_EQ(ring.capacity(), 2u);
  ring.push_back(RingMessage{3, nullptr});
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 3u);
}

TEST(Ring, PopReleasesTheElementsCaptures) {
  Ring<RingMessage> ring;
  auto owner = std::make_shared<int>(7);
  ring.push_back(RingMessage{1, [owner](SimTime) {}});
  ring.push_back(RingMessage{2, nullptr});  // Keeps the slot from reuse.
  EXPECT_EQ(owner.use_count(), 2);
  ring.pop_front();
  EXPECT_EQ(owner.use_count(), 1);  // Released at the pop, not on reuse.
}

}  // namespace
}  // namespace mltcp::sim
