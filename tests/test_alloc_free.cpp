// Allocation accounting for the event engine: after warmup, the
// schedule/fire, timer-rearm and cancel cycles, the forwarding path, a
// cross-shard channel's import buffer, the ring and interval-set FIFOs and
// a traffic replay on warm channels (both backends) must not touch the
// heap at all.
// Counts every global operator new by replacing it, so any hidden
// allocation on the hot path — a std::function fallback, a node-based
// container, a vector regrowth — fails the test instead of shipping as a
// per-event cost. Under AddressSanitizer, which owns operator new and
// reports a malloc/delete mismatch against a replacement, the count comes
// from ASan's allocator hooks instead (every heap allocation, malloc too).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "flowsim/flow_simulator.hpp"
#include "net/node.hpp"
#include "net/queue.hpp"
#include "net/topology.hpp"
#include "pdes/channel.hpp"
#include "sim/event_queue.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "tcp/interval_set.hpp"
#include "tcp/reno.hpp"
#include "traffic/source.hpp"
#include "workload/cluster.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define MLTCP_ASAN_ALLOC_HOOKS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MLTCP_ASAN_ALLOC_HOOKS 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

#ifdef MLTCP_ASAN_ALLOC_HOOKS
// Declared here because not every toolchain ships
// <sanitizer/allocator_interface.h>.
extern "C" int __sanitizer_install_malloc_and_free_hooks(
    void (*malloc_hook)(const volatile void*, std::size_t),
    void (*free_hook)(const volatile void*));

namespace {
void count_malloc(const volatile void*, std::size_t) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
}
// Must be non-null: with a null free hook the install call fails.
void ignore_free(const volatile void*) {}
[[maybe_unused]] const bool g_hooks_installed =
    __sanitizer_install_malloc_and_free_hooks(count_malloc, ignore_free) != 0;
}  // namespace
#else
namespace {
void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n > 0 ? n : 1);
}
}  // namespace

// Replacements for the throwing and sized forms; the nothrow forms route
// through these per the standard. Aligned forms are left alone — the engine
// never over-aligns (EventCallback rejects captures aligned beyond 8).
void* operator new(std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace mltcp {
namespace {

/// Packet-scale capture: the size class of the propagation-delivery closures
/// the simulator schedules three times per packet (Node* + 72-byte Packet).
struct PacketScaleCapture {
  std::int64_t payload[9];
  std::int64_t* sink;
  void operator()() const { *sink += payload[0]; }
};
static_assert(sizeof(PacketScaleCapture) == 80);
static_assert(sizeof(PacketScaleCapture) <= sim::kInlineCallbackCapacity);
static_assert(std::is_trivially_copyable_v<PacketScaleCapture>);

TEST(AllocFree, CounterSeesHeapFallback) {
  // Negative control: an oversized capture must take the heap path, proving
  // the counter actually observes engine allocations.
  sim::EventQueue q;
  struct Oversized {
    char bytes[sim::kInlineCallbackCapacity + 8];
    void operator()() const {}
  };
  const std::uint64_t before = g_alloc_count.load();
  q.schedule(1, Oversized{});
  q.pop_and_run();
  EXPECT_GT(g_alloc_count.load(), before);
}

TEST(AllocFree, OneShotScheduleFireCycleIsAllocationFree) {
  sim::EventQueue q;
  std::int64_t sink = 0;
  const auto cycle = [&q, &sink](int iters) {
    sim::SimTime now = 0;
    for (int i = 0; i < iters; ++i) {
      PacketScaleCapture c{};
      c.payload[0] = i;
      c.sink = &sink;
      q.schedule(now + 1 + (i * 37) % 101, c);
      if (i >= 32) now = q.pop_and_run();  // hold ~32 in flight
    }
    while (!q.empty()) q.pop_and_run();
  };
  cycle(4096);  // warmup: heap, slot chunks and free list reach steady state
  const std::uint64_t before = g_alloc_count.load();
  cycle(4096);
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << "schedule/fire cycle allocated on the steady-state path";
  EXPECT_GT(sink, 0);
}

TEST(AllocFree, TimerRearmStormIsAllocationFree) {
  sim::Simulator s;
  sim::EventQueue& q = s.event_queue();
  std::int64_t fired = 0;
  sim::Timer rto(s, [&fired] { ++fired; });
  sim::SimTime now = 0;
  const auto cycle = [&](int iters) {
    for (int i = 0; i < iters; ++i) {
      rto.arm_at(now + 1'000'000);
      q.schedule(now + 1, [] {});
      now = q.pop_and_run();
    }
  };
  cycle(20'000);  // warmup: slot table and heap position table sized
  const std::uint64_t before = g_alloc_count.load();
  cycle(20'000);
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "timer rearm allocated";
  EXPECT_EQ(fired, 0);
  rto.cancel();
  while (!q.empty()) q.pop_and_run();
}

TEST(AllocFree, CancelHeavyCycleIsAllocationFree) {
  sim::EventQueue q;
  sim::SimTime now = 0;
  const auto cycle = [&](int iters) {
    for (int i = 0; i < iters; ++i) {
      const sim::EventId id = q.schedule(now + 1'000'000, [] {});
      q.cancel(id);
      q.schedule(now + 1, [] {});
      now = q.pop_and_run();
    }
  };
  cycle(20'000);
  const std::uint64_t before = g_alloc_count.load();
  cycle(20'000);
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "cancel/reschedule cycle allocated";
  EXPECT_TRUE(q.empty());
}

TEST(AllocFree, ForwardingPathSteadyStateIsAllocationFree) {
  // The full packet path — Host::send, queue admission (ring storage under
  // a busy transmitter), transmission timer, propagation closure, switch
  // forwarding, handler demux — must run allocation-free once the rings,
  // the event-engine slots and the route tables have reached their working
  // sizes. Bursts of 4 keep the link busy so packets actually rest in the
  // PacketRing instead of taking the idle-transmitter bypass.
  sim::Simulator sim;
  net::Topology topo(sim);
  net::Host* a = topo.add_host("a");
  net::Host* b = topo.add_host("b");
  net::Switch* s = topo.add_switch("s");
  const net::QueueFactory qf = net::make_droptail_factory(64 * 1500);
  topo.connect(*a, *s, 1e9, sim::microseconds(5), qf);
  topo.connect(*s, *b, 1e9, sim::microseconds(5), qf);
  topo.build_routes();

  constexpr int kBurst = 4;
  constexpr int kWarmupRounds = 512;
  constexpr int kMeasuredRounds = 512;
  int rounds = 0;
  int pending = 0;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  const auto burst = [&](net::Host& from, net::NodeId to) {
    for (int i = 0; i < kBurst; ++i) {
      net::Packet p;
      p.flow = 1;
      p.dst = to;
      p.seq = rounds * kBurst + i;
      from.send(p);
    }
  };
  const auto on_burst_done = [&](net::Host& replier, net::NodeId to) {
    if (++pending < kBurst) return;
    pending = 0;
    ++rounds;
    if (rounds == kWarmupRounds) before = g_alloc_count.load();
    if (rounds == kWarmupRounds + kMeasuredRounds) {
      after = g_alloc_count.load();
      return;  // Stop bouncing; the simulator drains and finishes.
    }
    burst(replier, to);
  };
  a->register_flow(1, [&](const net::Packet&) { on_burst_done(*a, b->id()); });
  b->register_flow(1, [&](const net::Packet&) { on_burst_done(*b, a->id()); });

  burst(*a, b->id());
  sim.run();
  ASSERT_EQ(rounds, kWarmupRounds + kMeasuredRounds);
  EXPECT_EQ(after - before, 0u)
      << "forwarding path allocated on the steady-state path";
  EXPECT_EQ(s->forwarded_packets(),
            static_cast<std::int64_t>(rounds) * kBurst);
  EXPECT_EQ(s->routeless_drops(), 0);
}

TEST(AllocFree, ChannelImportBufferRecyclesWhileNeverEmpty) {
  // A cut link hands each delivery over before it is due, so a consumer
  // usually drains while a delivery is still pending. The import buffer
  // must reuse its storage all the same, not grow with every delivery.
  sim::Simulator sim;
  net::DumbbellConfig cfg;
  cfg.hosts_per_side = 1;
  auto d = net::make_dumbbell(sim, cfg);
  pdes::CrossShardChannel ch(d.bottleneck);
  const net::Packet pkt{};
  sim::SimTime when = 0;
  const auto cycle = [&](int iters) {
    for (int i = 0; i < iters; ++i) {
      ++when;
      ch.deliver(when, static_cast<std::uint64_t>(when), d.right_switch, pkt);
      ch.drain();
      while (ch.front().when < when) ch.pop();  // All but the newest run.
    }
  };
  cycle(1024);
  const std::uint64_t before = g_alloc_count.load();
  cycle(16 * 1024);
  EXPECT_EQ(g_alloc_count.load() - before, 0u)
      << "the import buffer grew on the steady-state path";
}

TEST(AllocFree, RingRefillsToItsWorkingDepthWithoutAllocating) {
  // A channel's message FIFO drains between bursts; refilling it to the
  // depth it has already held must reuse its storage.
  struct Message {
    std::int64_t bytes = 0;
    std::function<void(sim::SimTime)> done;
  };
  sim::Ring<Message> ring;
  std::int64_t completed = 0;
  const auto burst = [&](int depth) {
    for (int i = 0; i < depth; ++i) {
      ring.push_back(Message{i, [&completed](sim::SimTime) { ++completed; }});
    }
    while (!ring.empty()) {
      Message m = std::move(ring.front());
      ring.pop_front();
      m.done(0);
    }
  };
  burst(100);
  const std::uint64_t before = g_alloc_count.load();
  for (int depth = 1; depth <= 100; ++depth) burst(depth);
  EXPECT_EQ(g_alloc_count.load() - before, 0u)
      << "a drained ring allocated refilling to its working depth";
  EXPECT_EQ(completed, 100 + 100 * 101 / 2);
}

TEST(AllocFree, IntervalSetReusesItsStorage) {
  // A Karn-style cycle: retransmit scattered segments of a window, a SACK
  // block bridges some of them, one is re-marked eligible, and cumulative
  // ACKs prune the set empty. After the first window nothing allocates.
  tcp::IntervalSet set;
  const auto window = [&set](std::int64_t base) {
    for (std::int64_t i = 0; i < 64; i += 3) set.insert(base + i, base + i + 1);
    set.insert(base + 10, base + 20);
    set.erase(base + 15, base + 16);
    for (std::int64_t i = 8; i <= 64; i += 8) set.erase_below(base + i);
  };
  window(0);
  const std::uint64_t before = g_alloc_count.load();
  for (std::int64_t w = 1; w <= 1000; ++w) window(64 * w);
  EXPECT_EQ(g_alloc_count.load() - before, 0u)
      << "the interval set allocated after its first window";
  EXPECT_TRUE(set.empty());
}

/// Allocations while a TrafficSource replays periodic fixed-size transfers
/// over fixed host pairs of a 2x4 leaf-spine, after a warm-up window of the
/// same traffic has opened every pair's channel and brought every FIFO,
/// pool and heap to its working size. `flowsim` picks the backend.
std::uint64_t warm_replay_allocations(bool flowsim, std::size_t& completed) {
  constexpr int kHosts = 8;
  constexpr int kRounds = 500;  // Per window: 4,000 transfers.
  constexpr sim::SimTime kPeriod = sim::microseconds(100);
  sim::Simulator sim;
  net::LeafSpineConfig lc;
  lc.spines = 2;
  net::LeafSpine ls = net::make_leaf_spine(sim, lc);
  std::unique_ptr<flowsim::FlowSimulator> fs;
  workload::Cluster cluster(sim);
  if (flowsim) {
    fs = std::make_unique<flowsim::FlowSimulator>(sim, *ls.topology);
    cluster.set_backend(fs.get());
  }
  std::vector<net::Host*> hosts;
  for (const auto& rack : ls.racks) {
    hosts.insert(hosts.end(), rack.begin(), rack.end());
  }
  traffic::SourceOptions opts;
  opts.cc = [] { return std::make_unique<tcp::RenoCC>(); };
  traffic::TrafficSource source(sim, cluster, hosts, opts);
  std::vector<traffic::FlowArrival> arrivals;
  for (int r = 0; r < 2 * kRounds; ++r) {
    for (std::int32_t h = 0; h < kHosts; ++h) {
      arrivals.push_back(
          traffic::FlowArrival{r * kPeriod, h, (h + 5) % kHosts, 20'000});
    }
  }
  source.install(std::move(arrivals));
  sim.run_until(kRounds * kPeriod);
  const std::uint64_t before = g_alloc_count.load();
  sim.run_until(2 * kRounds * kPeriod);
  const std::uint64_t after = g_alloc_count.load();
  sim.run();
  completed = source.completed();
  return after - before;
}

TEST(AllocFree, TrafficReplayOnWarmChannelsIsAllocationFree) {
  // A post hands the backend a completion that fits std::function's inline
  // buffer, and each channel queues it on a ring that has reached its
  // working depth: on either backend, a replay on warm channels allocates
  // nothing per transfer.
  for (const bool flowsim : {true, false}) {
    std::size_t completed = 0;
    EXPECT_EQ(warm_replay_allocations(flowsim, completed), 0u)
        << (flowsim ? "flowsim" : "packet") << " replay allocated";
    EXPECT_EQ(completed, 8'000u) << (flowsim ? "flowsim" : "packet");
  }
}

}  // namespace
}  // namespace mltcp
