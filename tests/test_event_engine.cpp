// Event-engine regression tests: generation-tagged id exactness across slot
// reuse, a heap that holds exactly the pending events through cancel/rearm
// storms, reusable-timer semantics and footprint, a timer's attachment to
// the shard that first arms it, the (when, key) order of canonically
// keyed events, and a randomized differential check of pop ordering (with
// timers re-keyed both ways) against a reference priority structure.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "telemetry/trace_event.hpp"
#include "telemetry/tracer.hpp"

namespace mltcp {
namespace {

// ------------------------------------------------- id / generation exactness

TEST(EventEngineIds, StaleIdsAreExactAcrossSlotReuse) {
  sim::EventQueue q;
  const sim::EventId a = q.schedule(100, [] {});
  EXPECT_TRUE(q.pending(a));
  EXPECT_TRUE(q.cancel(a));
  EXPECT_FALSE(q.pending(a));
  EXPECT_FALSE(q.cancel(a));  // double cancel: exact no-op

  // The free list is LIFO, so this reuses a's slot. The stale id must not
  // alias the new event.
  int b_fired = 0;
  const sim::EventId b = q.schedule(50, [&b_fired] { ++b_fired; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(q.pending(a));
  EXPECT_FALSE(q.cancel(a));  // must not kill b
  EXPECT_TRUE(q.pending(b));
  EXPECT_EQ(q.pop_and_run(), 50);
  EXPECT_EQ(b_fired, 1);
  EXPECT_FALSE(q.pending(b));  // fired: id is spent
  EXPECT_FALSE(q.cancel(b));
  EXPECT_TRUE(q.empty());
}

TEST(EventEngineIds, ForeignIdsAreRejected) {
  sim::EventQueue q;
  EXPECT_FALSE(q.cancel(sim::kInvalidEventId));
  EXPECT_FALSE(q.pending(sim::kInvalidEventId));
  // Ids this queue never issued: out-of-range slots.
  EXPECT_FALSE(q.cancel(~std::uint64_t{0}));
  EXPECT_FALSE(q.pending(std::uint64_t{1} << 32));
  const sim::EventId id = q.schedule(10, [] {});
  EXPECT_FALSE(q.cancel(id + 1));  // same slot, a generation it never held
  EXPECT_TRUE(q.cancel(id));
}

TEST(EventEngineIds, ManyReusesOfOneSlotStayExact) {
  sim::EventQueue q;
  std::vector<sim::EventId> spent;
  for (int i = 0; i < 1000; ++i) {
    const sim::EventId id = q.schedule(i, [] {});
    for (const sim::EventId old : spent) {
      ASSERT_FALSE(q.pending(old));
    }
    if (i % 2 == 0) {
      EXPECT_TRUE(q.cancel(id));
    } else {
      EXPECT_EQ(q.pop_and_run(), i);
    }
    spent.push_back(id);
    if (spent.size() > 8) spent.erase(spent.begin());
  }
  EXPECT_TRUE(q.empty());
  EXPECT_LT(q.slot_capacity(), 8u);  // one slot recycled throughout
}

// -------------------------------------------------------- bounded memory

TEST(EventEngineMemory, RtoRearmStormStaysBounded) {
  sim::Simulator s;
  sim::EventQueue& q = s.event_queue();
  int fired = 0;
  sim::Timer rto(s, [&fired] { ++fired; });
  sim::SimTime now = 0;
  for (int i = 0; i < 200'000; ++i) {
    rto.arm_at(now + 1'000'000);  // pushed out before every fire, like an RTO
    q.schedule(now + 1, [] {});
    now = q.pop_and_run();
  }
  EXPECT_EQ(fired, 0);
  // Each rearm re-keyed the timer's one entry in place: the heap holds
  // exactly the pending timer, not 200k superseded deadlines.
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.heap_entries(), q.size());
  EXPECT_LT(q.slot_capacity(), 64u);
  rto.cancel();
  while (!q.empty()) q.pop_and_run();
}

TEST(EventEngineMemory, CancelStormStaysBounded) {
  sim::EventQueue q;
  sim::SimTime now = 0;
  for (int i = 0; i < 200'000; ++i) {
    const sim::EventId id = q.schedule(now + 1'000'000, [] {});
    ASSERT_TRUE(q.cancel(id));
    q.schedule(now + 1, [] {});
    now = q.pop_and_run();
  }
  // Each cancel removed its entry; none lingers for a later pop to skip.
  EXPECT_EQ(q.heap_entries(), q.size());
  EXPECT_LT(q.slot_capacity(), 64u);
  EXPECT_TRUE(q.empty());
}

// ------------------------------------------------------------ timer handle

TEST(Timer, RearmFiresOnceAtNewDeadline) {
  sim::Simulator s;
  std::vector<sim::SimTime> fires;
  sim::Timer t(s, [&] { fires.push_back(s.now()); });
  t.arm(100);
  t.arm(250);  // replaces the pending deadline in place
  s.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], 250);
}

TEST(Timer, PendingAndDeadlineTrackLifecycle) {
  sim::Simulator s;
  int fired = 0;
  sim::Timer t(s, [&fired] { ++fired; });
  EXPECT_FALSE(t.pending());
  t.arm(100);
  EXPECT_TRUE(t.pending());
  EXPECT_EQ(t.deadline(), 100);
  t.arm(300);
  EXPECT_TRUE(t.pending());
  EXPECT_EQ(t.deadline(), 300);
  t.cancel();
  EXPECT_FALSE(t.pending());
  s.run();
  EXPECT_EQ(fired, 0);

  t.arm(500);  // rearm after cancel works
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
  t.arm(10);  // rearm after fire works
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Timer, RearmTakesFreshFifoPositionAtEqualTimestamps) {
  // A rearm gets a fresh FIFO sequence number, exactly like the
  // cancel + schedule pattern it replaces: rearming to a deadline another
  // event already holds puts the timer behind that event.
  sim::Simulator s;
  std::vector<int> order;
  sim::Timer t(s, [&order] { order.push_back(0); });
  t.arm(100);
  s.schedule(100, [&order] { order.push_back(1); });
  t.arm_at(100);  // same deadline, fresh position: now behind the one-shot
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(Timer, CallbackMayRearmItself) {
  sim::Simulator s;
  std::vector<sim::SimTime> fires;
  sim::Timer t;
  t.bind(s, [&] {
    fires.push_back(s.now());
    if (fires.size() < 3) t.arm(10);
  });
  t.arm(5);
  s.run();
  EXPECT_EQ(fires, (std::vector<sim::SimTime>{5, 15, 25}));
}

TEST(Timer, HoldsOneCallback) {
  // Three timers ride on every TCP connection; a second (dead) callback
  // copy would be most of each timer's footprint.
  EXPECT_LT(sizeof(sim::Timer), 2 * sizeof(sim::EventCallback));
}

TEST(Timer, FirstArmAttachesToTheArmingShard) {
  sim::Simulator s;
  s.configure_shards(2);
  const sim::EventQueue& root = s.shard_context(0).queue;
  const sim::EventQueue& shard1 = s.shard_context(1).queue;
  {
    sim::Timer t(s, [] {});
    // bind takes no slot; the first arm takes one in the arming shard.
    EXPECT_EQ(root.slot_capacity() + shard1.slot_capacity(), 0u);
    {
      sim::Simulator::ShardGuard guard(s, 1);
      t.arm(100);
      EXPECT_EQ(shard1.size(), 1u);
      EXPECT_EQ(root.size(), 0u);
      EXPECT_EQ(root.slot_capacity(), 0u);
      t.arm(200);  // a rearm re-keys the one entry in place
      EXPECT_EQ(shard1.size(), 1u);
    }
    t.cancel();  // cancel needs no guard: the timer knows its queue
    EXPECT_EQ(shard1.size(), 0u);
    {
      sim::Simulator::ShardGuard guard(s, 1);
      t.arm(300);
    }
    EXPECT_EQ(shard1.size(), 1u);
  }
  // Destruction returned the pending slot to shard 1's queue.
  EXPECT_EQ(shard1.size(), 0u);
  EXPECT_EQ(root.size(), 0u);
}

// ------------------------------------------------------- (when, key) order

TEST(EventEngineKeys, KeyedEventsAtOneInstantRunInKeyOrder) {
  sim::EventQueue q;
  std::vector<std::uint64_t> order;
  for (const std::uint64_t key : {7u, 2u, 9u, 0u, 5u}) {
    q.schedule_keyed(100, key, [&order, key] { order.push_back(key); });
  }
  while (!q.empty()) EXPECT_EQ(q.pop_and_run(), 100);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 2, 5, 7, 9}));
}

TEST(EventEngineKeys, KeyedEventsRunBeforeOrdinaryEventsAtTheirInstant) {
  sim::EventQueue q;
  std::vector<int> order;
  const auto mark = [&order](int tag) {
    return [&order, tag] { order.push_back(tag); };
  };
  q.schedule(100, mark(3));
  q.schedule_keyed(100, sim::EventQueue::kOrdinalBand - 1, mark(2));
  q.schedule(100, mark(4));
  q.schedule_keyed(100, 1, mark(1));
  q.schedule(50, mark(0));  // an earlier instant still runs first
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventEngineKeys, BarrierTimerFiresBeforeAnEarlierScheduledDelivery) {
  sim::Simulator s;
  std::vector<int> order;
  // A link delivery's canonical key: (link rank + 1) << 40 | FIFO ordinal.
  s.schedule_keyed(100, (std::uint64_t{3} << 40) | 17,
                   [&order] { order.push_back(1); });
  sim::Timer barrier(s, [&order] { order.push_back(0); });
  barrier.arm_at_keyed(100, sim::EventQueue::kBarrierKey);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventEngineKeys, RearmWithoutAKeyReturnsATimerToFifoOrder) {
  sim::Simulator s;
  std::vector<int> order;
  sim::Timer t(s, [&order] { order.push_back(0); });
  t.arm_at_keyed(100, sim::EventQueue::kBarrierKey);
  s.schedule_at(100, [&order] { order.push_back(1); });
  t.arm_at(100);  // replaces the keyed deadline: now behind the one-shot
  s.schedule_at(100, [&order] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

TEST(EventEngineKeys, PopBeforeKeyStopsExactlyAtTheBound) {
  sim::EventQueue q;
  std::vector<int> order;
  const auto mark = [&order](int tag) {
    return [&order, tag] { order.push_back(tag); };
  };
  q.schedule_keyed(99, 9, mark(0));
  q.schedule_keyed(100, 4, mark(1));
  q.schedule_keyed(100, 5, mark(2));
  q.schedule_keyed(100, 6, mark(3));
  q.schedule(100, mark(4));

  sim::SimTime clock = 0;
  while (q.pop_and_run_before_key(100, 5, &clock)) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1}));  // (100, 5) itself stays
  EXPECT_EQ(clock, 100);
  EXPECT_EQ(q.size(), 3u);

  EXPECT_TRUE(q.pop_and_run_before_key(100, 6, &clock));
  EXPECT_FALSE(q.pop_and_run_before_key(100, 6, &clock));
  // Every canonical key sorts below the band; every ordinary event above.
  EXPECT_TRUE(q.pop_and_run_before_key(100, sim::EventQueue::kOrdinalBand,
                                       &clock));
  EXPECT_FALSE(q.pop_and_run_before_key(100, sim::EventQueue::kOrdinalBand,
                                        &clock));
  EXPECT_TRUE(q.pop_and_run_before_key(101, 0, &clock));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// -------------------------------------------- telemetry trace equivalence

/// Runs the same RTO-push-out scenario either through a reusable Timer or
/// through the manual cancel + schedule pattern it replaces, and returns the
/// telemetry events it produced. Drivers at t = 0/10/20 each push the
/// deadline to now + 100; a competing one-shot shares the final fire time.
std::vector<telemetry::TraceEvent> run_rto_scenario(bool use_timer) {
  sim::Simulator s;
  telemetry::Tracer::Config cfg;
  cfg.categories = telemetry::category_bit(telemetry::Category::kCustom);
  cfg.ring_capacity = 64;
  telemetry::Tracer tracer(cfg);
  s.set_tracer(&tracer);

  const auto emit = [&s](const char* name) {
    if (auto* t = telemetry::tracer_for(s, telemetry::Category::kCustom)) {
      t->instant(telemetry::Category::kCustom, name, s.now(), 7);
    }
  };

  sim::Timer rto;
  sim::EventId rto_id = sim::kInvalidEventId;
  if (use_timer) {
    rto.bind(s, [&emit] { emit("rto_fire"); });
  }
  for (const sim::SimTime at : {0, 10, 20}) {
    s.schedule_at(at, [&, use_timer] {
      emit("rto_pushed");
      if (use_timer) {
        rto.arm(100);
      } else {
        if (s.pending(rto_id)) s.cancel(rto_id);
        rto_id = s.schedule(100, [&emit] { emit("rto_fire"); });
      }
    });
  }
  s.schedule_at(120, [&emit] { emit("other"); });  // ties with the final fire
  s.run();
  return tracer.ring_snapshot();
}

TEST(TimerTraceEquivalence, RearmMatchesCancelSchedulePattern) {
  const auto with_timer = run_rto_scenario(true);
  const auto manual = run_rto_scenario(false);
  ASSERT_EQ(with_timer.size(), manual.size());
  for (std::size_t i = 0; i < manual.size(); ++i) {
    EXPECT_EQ(with_timer[i].when, manual[i].when) << "event " << i;
    EXPECT_EQ(with_timer[i].type, manual[i].type) << "event " << i;
    EXPECT_EQ(with_timer[i].track, manual[i].track) << "event " << i;
    EXPECT_STREQ(with_timer[i].name, manual[i].name) << "event " << i;
  }
  // Sanity: the scenario fired exactly once, after the competing one-shot.
  ASSERT_EQ(manual.size(), 5u);
  EXPECT_STREQ(manual[3].name, "other");
  EXPECT_STREQ(manual[4].name, "rto_fire");
  EXPECT_EQ(manual[4].when, 120);
}

// ------------------------------------------------- randomized differential

TEST(EventEngineDifferential, MatchesReferenceOrderingUnderChurn) {
  // Reference model: a multimap keyed by timestamp. Since C++11 multimap
  // insertion places equal keys at the upper bound of their range, which is
  // exactly the queue's FIFO-at-equal-timestamp contract. A timer rearm
  // takes a fresh FIFO position, so the reference erases and re-inserts it.
  sim::Rng rng(0xE7E47);
  sim::Simulator s;
  sim::EventQueue& q = s.event_queue();
  std::multimap<sim::SimTime, int> ref;
  std::unordered_map<int, sim::EventId> ids;
  std::vector<int> fired;
  int next_token = 0;
  sim::SimTime now = 0;

  // Timers carry tokens -1..-4 and re-arm in place, to earlier and to later
  // deadlines than the one they hold.
  std::array<sim::Timer, 4> timers;
  for (int t = 0; t < 4; ++t) {
    timers[t].bind(s, [t, &fired] { fired.push_back(-1 - t); });
  }
  int rekeyed_earlier = 0;
  int rekeyed_later = 0;

  const auto erase_ref = [&ref](int tok) {
    for (auto r = ref.begin(); r != ref.end(); ++r) {
      if (r->second == tok) {
        ref.erase(r);
        return;
      }
    }
  };
  const auto pop_and_check = [&] {
    const auto expected = ref.begin();
    fired.clear();
    now = q.pop_and_run();
    ASSERT_EQ(now, expected->first);
    ASSERT_EQ(fired.size(), 1u);
    ASSERT_EQ(fired[0], expected->second);
    ids.erase(expected->second);
    ref.erase(expected);
  };

  for (int step = 0; step < 50'000; ++step) {
    const std::int64_t op = rng.uniform_int(0, 11);
    if (op < 5 || ref.empty()) {
      const sim::SimTime when = now + rng.uniform_int(0, 40);
      const int tok = next_token++;
      ids[tok] = q.schedule(when, [tok, &fired] { fired.push_back(tok); });
      ref.emplace(when, tok);
    } else if (op < 7) {
      if (ids.empty()) continue;
      // Cancel a pseudo-random outstanding event.
      auto it = ids.begin();
      std::advance(it, rng.uniform_int(
                           0, static_cast<std::int64_t>(ids.size()) - 1));
      ASSERT_TRUE(q.cancel(it->second));
      erase_ref(it->first);
      ids.erase(it);
    } else if (op < 10) {
      pop_and_check();
    } else {
      const auto t = static_cast<int>(rng.uniform_int(0, 3));
      sim::Timer& timer = timers[t];
      if (op == 10) {
        const sim::SimTime when = now + rng.uniform_int(0, 40);
        if (timer.pending()) {
          rekeyed_earlier += when < timer.deadline();
          rekeyed_later += when > timer.deadline();
        }
        erase_ref(-1 - t);
        timer.arm_at(when);
        ref.emplace(when, -1 - t);
      } else {
        erase_ref(-1 - t);
        timer.cancel();
      }
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  while (!ref.empty()) pop_and_check();
  EXPECT_TRUE(q.empty());
  EXPECT_GT(rekeyed_earlier, 100);
  EXPECT_GT(rekeyed_later, 100);
}

}  // namespace
}  // namespace mltcp
