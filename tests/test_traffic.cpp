// Traffic-matrix subsystem tests: pattern generation must be a pure function
// of (config, n_hosts); the source's FCT accounting must reconcile posted /
// completed / open; the shuffle and serving jobs must respect their barrier
// and fan-out semantics; queue drop/mark counters must reconcile with
// sent-minus-delivered under synchronized incast; and a faulted campaign
// that carries traffic must stay byte-identical across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/metrics.hpp"
#include "net/queue.hpp"
#include "net/topology.hpp"
#include "runner/campaign.hpp"
#include "runner/sinks.hpp"
#include "scenario/engine.hpp"
#include "scenario/scenario.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tcp/dctcp.hpp"
#include "tcp/flow.hpp"
#include "tcp/reno.hpp"
#include "traffic/jobs.hpp"
#include "traffic/pattern.hpp"
#include "traffic/source.hpp"
#include "workload/cluster.hpp"

namespace mltcp {
namespace {

using traffic::FlowArrival;
using traffic::Pattern;
using traffic::SizeDist;
using traffic::TrafficConfig;

tcp::CcFactory reno() {
  return [] { return std::make_unique<tcp::RenoCC>(); };
}

// ---------------------------------------------------------------- patterns

TEST(TrafficPattern, GenerationIsAPureFunctionOfConfig) {
  TrafficConfig cfg;
  cfg.pattern = Pattern::kPoisson;
  cfg.size_dist = SizeDist::kPareto;
  cfg.seed = 42;
  const auto a = traffic::generate_arrivals(cfg, 8);
  const auto b = traffic::generate_arrivals(cfg, 8);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);

  cfg.seed = 43;
  const auto c = traffic::generate_arrivals(cfg, 8);
  EXPECT_NE(a, c) << "a different seed must produce a different stream";
}

TEST(TrafficPattern, EveryPatternEmitsInTimeOrderWithoutASort) {
  // generate_arrivals runs no sort: each pattern must already emit its
  // list in time order, equal instants in generation order, so a stable
  // sort by time would leave it unchanged.
  for (const Pattern pattern : traffic::all_patterns()) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      TrafficConfig cfg;
      cfg.pattern = pattern;
      cfg.size_dist = SizeDist::kPareto;
      cfg.flows_per_second = 4000.0;
      cfg.epoch = sim::milliseconds(30);
      cfg.start = sim::milliseconds(5);
      cfg.stop = sim::milliseconds(500);
      cfg.seed = seed;
      const auto list = traffic::generate_arrivals(cfg, 8);
      ASSERT_GT(list.size(), 100u) << traffic::pattern_name(pattern);
      auto sorted = list;
      std::stable_sort(sorted.begin(), sorted.end(),
                       [](const FlowArrival& a, const FlowArrival& b) {
                         return a.at < b.at;
                       });
      EXPECT_EQ(list, sorted)
          << traffic::pattern_name(pattern) << " seed " << seed;
    }
  }
}

TEST(TrafficPattern, PoissonArrivalsAreSortedDistinctPairsInWindow) {
  TrafficConfig cfg;
  cfg.pattern = Pattern::kPoisson;
  cfg.flows_per_second = 2000.0;
  cfg.start = sim::milliseconds(100);
  cfg.stop = sim::milliseconds(600);
  const int n = 6;
  const auto arrivals = traffic::generate_arrivals(cfg, n);
  ASSERT_GT(arrivals.size(), 100u);  // ~1000 expected
  std::set<std::pair<int, int>> pairs;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const FlowArrival& a = arrivals[i];
    EXPECT_GE(a.at, cfg.start);
    EXPECT_LT(a.at, cfg.stop);
    if (i > 0) {
      EXPECT_LE(arrivals[i - 1].at, a.at);
    }
    EXPECT_NE(a.src, a.dst);
    EXPECT_GE(a.src, 0);
    EXPECT_LT(a.src, n);
    EXPECT_GE(a.dst, 0);
    EXPECT_LT(a.dst, n);
    EXPECT_EQ(a.bytes, cfg.mean_bytes);  // kFixed
    pairs.insert({a.src, a.dst});
  }
  // With ~1000 draws over 30 ordered pairs, every pair should appear.
  EXPECT_EQ(pairs.size(), static_cast<std::size_t>(n * (n - 1)));
}

TEST(TrafficPattern, IncastEpochsConvergeOnOneRotatingVictim) {
  TrafficConfig cfg;
  cfg.pattern = Pattern::kIncast;
  cfg.epoch = sim::milliseconds(10);
  cfg.stop = sim::milliseconds(40);  // 4 epochs
  cfg.incast_fanin = 3;
  const int n = 5;
  const auto arrivals = traffic::generate_arrivals(cfg, n);
  ASSERT_EQ(arrivals.size(), 4u * 3u);
  for (int round = 0; round < 4; ++round) {
    for (int k = 0; k < 3; ++k) {
      const FlowArrival& a = arrivals[static_cast<std::size_t>(round * 3 + k)];
      EXPECT_EQ(a.at, cfg.epoch * round);
      EXPECT_EQ(a.dst, round % n) << "victim must rotate per epoch";
      EXPECT_NE(a.src, a.dst);
    }
  }

  // A pinned victim with default fan-in pulls from every other host at once.
  cfg.incast_victim = 2;
  cfg.incast_fanin = 0;
  cfg.stop = sim::milliseconds(10);  // one epoch
  const auto pinned = traffic::generate_arrivals(cfg, n);
  ASSERT_EQ(pinned.size(), static_cast<std::size_t>(n - 1));
  std::set<std::int32_t> senders;
  for (const FlowArrival& a : pinned) {
    EXPECT_EQ(a.dst, 2);
    senders.insert(a.src);
  }
  EXPECT_EQ(senders.size(), static_cast<std::size_t>(n - 1));
}

TEST(TrafficPattern, TornadoRotatesStrideWithoutSelfFlows) {
  TrafficConfig cfg;
  cfg.pattern = Pattern::kTornado;
  cfg.epoch = sim::milliseconds(10);
  cfg.stop = sim::milliseconds(30);  // 3 epochs
  const int n = 4;
  const auto arrivals = traffic::generate_arrivals(cfg, n);
  ASSERT_EQ(arrivals.size(), 3u * static_cast<std::size_t>(n));
  for (int round = 0; round < 3; ++round) {
    const int stride = 1 + round % (n - 1);
    for (int s = 0; s < n; ++s) {
      const FlowArrival& a =
          arrivals[static_cast<std::size_t>(round * n + s)];
      EXPECT_EQ(a.dst, (a.src + stride) % n) << "round " << round;
      EXPECT_NE(a.src, a.dst);
    }
  }
}

TEST(TrafficPattern, AllToAllCoversEveryOrderedPairPerEpoch) {
  TrafficConfig cfg;
  cfg.pattern = Pattern::kAllToAll;
  cfg.epoch = sim::milliseconds(10);
  cfg.stop = sim::milliseconds(10);  // one epoch
  const int n = 5;
  const auto arrivals = traffic::generate_arrivals(cfg, n);
  ASSERT_EQ(arrivals.size(), static_cast<std::size_t>(n * (n - 1)));
  std::set<std::pair<int, int>> pairs;
  for (const FlowArrival& a : arrivals) {
    EXPECT_NE(a.src, a.dst);
    pairs.insert({a.src, a.dst});
  }
  EXPECT_EQ(pairs.size(), arrivals.size()) << "each pair exactly once";
}

TEST(TrafficPattern, PermutationIsAFixpointFreeBijection) {
  TrafficConfig cfg;
  cfg.pattern = Pattern::kPermutation;
  cfg.flows_per_second = 5000.0;
  cfg.seed = 7;
  const int n = 9;
  const auto arrivals = traffic::generate_arrivals(cfg, n);
  ASSERT_GT(arrivals.size(), 50u);
  std::vector<std::int32_t> image(static_cast<std::size_t>(n), -1);
  for (const FlowArrival& a : arrivals) {
    EXPECT_NE(a.src, a.dst) << "permutation must be fixpoint-free";
    auto& slot = image[static_cast<std::size_t>(a.src)];
    if (slot == -1) slot = a.dst;
    EXPECT_EQ(slot, a.dst) << "host " << a.src << " must keep one peer";
  }
}

TEST(TrafficPattern, ParetoSizesAreBoundedWithPlausibleMean) {
  TrafficConfig cfg;
  cfg.pattern = Pattern::kPoisson;
  cfg.size_dist = SizeDist::kPareto;
  cfg.mean_bytes = 50'000;
  cfg.max_bytes = 5'000'000;
  cfg.flows_per_second = 20'000.0;
  const auto arrivals = traffic::generate_arrivals(cfg, 4);
  ASSERT_GT(arrivals.size(), 5000u);
  double total = 0.0;
  std::int64_t biggest = 0;
  for (const FlowArrival& a : arrivals) {
    EXPECT_GE(a.bytes, 1);
    EXPECT_LE(a.bytes, cfg.max_bytes);
    total += static_cast<double>(a.bytes);
    biggest = std::max(biggest, a.bytes);
  }
  const double realized_mean = total / static_cast<double>(arrivals.size());
  // Truncation pulls the realized mean below the nominal knob; it must stay
  // the right order of magnitude and the tail must actually reach out.
  EXPECT_GT(realized_mean, 0.3 * static_cast<double>(cfg.mean_bytes));
  EXPECT_LT(realized_mean, 2.0 * static_cast<double>(cfg.mean_bytes));
  EXPECT_GT(biggest, 10 * cfg.mean_bytes) << "no heavy tail generated";
}

TEST(TrafficPattern, DegenerateConfigsGenerateNothing) {
  TrafficConfig cfg;
  EXPECT_TRUE(traffic::generate_arrivals(cfg, 1).empty());
  EXPECT_TRUE(traffic::generate_arrivals(cfg, 0).empty());
  cfg.stop = cfg.start;
  EXPECT_TRUE(traffic::generate_arrivals(cfg, 4).empty());
  cfg.stop = sim::seconds(1);
  cfg.flows_per_second = 0.0;
  EXPECT_TRUE(traffic::generate_arrivals(cfg, 4).empty());
}

// ----------------------------------------- percentile / fct_stats fixes

TEST(TrafficFct, PercentileClampsAndSurvivesDegenerateInputs) {
  EXPECT_DOUBLE_EQ(analysis::percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(analysis::percentile({3.5}, 0.0), 3.5);
  EXPECT_DOUBLE_EQ(analysis::percentile({3.5}, 99.9), 3.5);
  std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  // Out-of-range p clamps to the extremes instead of indexing out of range.
  EXPECT_DOUBLE_EQ(analysis::percentile(xs, -10.0), 1.0);
  EXPECT_DOUBLE_EQ(analysis::percentile(xs, 999.0), 4.0);
  EXPECT_DOUBLE_EQ(analysis::percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(analysis::percentile(xs, 50.0), 2.5);
}

TEST(TrafficFct, StatsExcludeOpenFlowsFromQuantiles) {
  std::vector<double> fcts(1000);
  std::iota(fcts.begin(), fcts.end(), 1.0);  // 1..1000
  const analysis::FctStats s = analysis::fct_stats(fcts, 25);
  EXPECT_EQ(s.completed, 1000u);
  EXPECT_EQ(s.open, 25u);
  EXPECT_DOUBLE_EQ(s.min_s, 1.0);
  EXPECT_DOUBLE_EQ(s.max_s, 1000.0);
  EXPECT_NEAR(s.mean_s, 500.5, 1e-9);
  EXPECT_NEAR(s.p50_s, 500.5, 1.0);
  EXPECT_NEAR(s.p99_s, 990.0, 1.5);
  EXPECT_NEAR(s.p999_s, 999.0, 1.5);

  const analysis::FctStats empty = analysis::fct_stats({}, 3);
  EXPECT_EQ(empty.completed, 0u);
  EXPECT_EQ(empty.open, 3u);
  EXPECT_DOUBLE_EQ(empty.p999_s, 0.0);

  const analysis::FctStats one = analysis::fct_stats({2.5});
  EXPECT_EQ(one.completed, 1u);
  EXPECT_DOUBLE_EQ(one.p50_s, 2.5);
  EXPECT_DOUBLE_EQ(one.p999_s, 2.5);
}

// ----------------------------------------------------------------- source

/// Dumbbell world for traffic tests, mirroring the scenario rig.
struct Rig {
  sim::Simulator sim;
  net::Dumbbell d;
  workload::Cluster cluster{sim};

  explicit Rig(int hosts_per_side = 3, net::QueueFactory bottleneck = {}) {
    net::DumbbellConfig cfg;
    cfg.hosts_per_side = hosts_per_side;
    if (bottleneck) cfg.bottleneck_queue = std::move(bottleneck);
    d = net::make_dumbbell(sim, cfg);
  }

  std::vector<net::Host*> hosts() const {
    const auto& hs = d.topology->hosts();
    return {hs.begin(), hs.end()};
  }
};

TEST(TrafficSource, FctAccountingReconcilesAfterDrain) {
  Rig rig;
  traffic::TrafficSource source(rig.sim, rig.cluster, rig.hosts(),
                                traffic::SourceOptions{reno(), {}, {}});
  TrafficConfig cfg;
  cfg.pattern = Pattern::kPoisson;
  cfg.flows_per_second = 400.0;
  cfg.mean_bytes = 40'000;
  cfg.stop = sim::milliseconds(250);
  source.install(cfg);
  rig.sim.run_until(sim::seconds(20));  // Generous drain window.

  EXPECT_GT(source.posted(), 50u);
  EXPECT_EQ(source.completed(), source.posted());
  EXPECT_EQ(source.open(), 0u);
  EXPECT_EQ(source.bytes_completed(), source.bytes_posted());
  ASSERT_EQ(source.records().size(), source.posted());
  const auto fcts = source.completed_fcts_seconds();
  ASSERT_EQ(fcts.size(), source.completed());
  for (const traffic::FctRecord& r : source.records()) {
    EXPECT_TRUE(r.done());
    EXPECT_GT(r.fct_seconds(), 0.0);
    EXPECT_GE(r.completed, r.arrival);
  }
  const analysis::FctStats s = analysis::fct_stats(fcts, source.open());
  EXPECT_GT(s.p50_s, 0.0);
  EXPECT_GE(s.p999_s, s.p50_s);
}

TEST(TrafficSource, TruncatedRunCountsOpenFlowsSeparately) {
  Rig rig;
  traffic::TrafficSource source(rig.sim, rig.cluster, rig.hosts(),
                                traffic::SourceOptions{reno(), {}, {}});
  // One short flow early, one enormous flow that cannot finish in time.
  source.install(std::vector<FlowArrival>{
      {sim::milliseconds(1), 0, 1, 20'000},
      {sim::milliseconds(2), 2, 3, 4'000'000'000},
  });
  rig.sim.run_until(sim::milliseconds(200));

  EXPECT_EQ(source.posted(), 2u);
  EXPECT_EQ(source.completed(), 1u);
  EXPECT_EQ(source.open(), 1u);
  const auto fcts = source.completed_fcts_seconds();
  ASSERT_EQ(fcts.size(), 1u);
  // The open flow's truncated duration must not leak into the tails.
  const analysis::FctStats s = analysis::fct_stats(fcts, source.open());
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.open, 1u);
  EXPECT_DOUBLE_EQ(s.max_s, fcts.front());
  EXPECT_FALSE(source.records()[1].done());
  EXPECT_LT(source.bytes_completed(), source.bytes_posted());
}

/// The std::invalid_argument message install() throws for `arrivals` on a
/// 6-host rig, or "" when it accepts them.
std::string install_error(std::vector<FlowArrival> arrivals) {
  Rig rig;
  traffic::TrafficSource source(rig.sim, rig.cluster, rig.hosts(),
                                traffic::SourceOptions{reno(), {}, {}});
  try {
    source.install(std::move(arrivals));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(TrafficSource, InstallRejectsSourceOutsideHosts) {
  EXPECT_EQ(install_error({{0, 0, 1, 100}, {1, 6, 1, 100}}),
            "traffic arrival 1: src 6 is outside [0, 6)");
  EXPECT_EQ(install_error({{0, -1, 1, 100}}),
            "traffic arrival 0: src -1 is outside [0, 6)");
}

TEST(TrafficSource, InstallRejectsDestinationOutsideHosts) {
  EXPECT_EQ(install_error({{0, 0, 1, 100}, {0, 2, 3, 100}, {0, 2, 9, 100}}),
            "traffic arrival 2: dst 9 is outside [0, 6)");
  EXPECT_EQ(install_error({{0, 2, -3, 100}}),
            "traffic arrival 0: dst -3 is outside [0, 6)");
}

TEST(TrafficSource, InstallRejectsSelfPairs) {
  EXPECT_EQ(install_error({{0, 0, 1, 100}, {5, 4, 4, 100}}),
            "traffic arrival 1: src and dst are both 4");
}

TEST(TrafficSource, InstallRejectsNonPositiveBytes) {
  EXPECT_EQ(install_error({{0, 0, 1, 0}}),
            "traffic arrival 0: bytes 0 is not positive");
  EXPECT_EQ(install_error({{0, 0, 1, 100}, {0, 1, 0, -5}}),
            "traffic arrival 1: bytes -5 is not positive");
}

TEST(TrafficSource, InstallRejectsDecreasingArrivalTimes) {
  // Equal times are fine; a later arrival stamped earlier is not.
  EXPECT_EQ(install_error({{7, 0, 1, 100}, {7, 1, 2, 100}}), "");
  EXPECT_EQ(install_error({{5, 0, 1, 100}, {9, 1, 2, 100}, {8, 2, 3, 100}}),
            "traffic arrival 2: at 8 ns is before arrival 1's 9 ns");
}

/// A backend that records the channels a source opens (in creation order)
/// and the channel of every posted message. Messages complete at once.
class RecordingBackend final : public workload::Backend {
 public:
  explicit RecordingBackend(const sim::Simulator& simulator)
      : sim_(simulator) {}

  struct Opened {
    const net::Host* src;
    const net::Host* dst;
    net::FlowId id;
    bool operator==(const Opened&) const = default;
  };

  workload::Channel* create_channel(const workload::ChannelSpec& spec) override {
    opened.push_back(Opened{spec.src, spec.dst, spec.id});
    channels_.push_back(std::make_unique<Recorded>(*this, spec.id));
    return channels_.back().get();
  }
  const char* name() const override { return "recording"; }

  std::vector<Opened> opened;
  std::vector<net::FlowId> posts;

 private:
  class Recorded final : public workload::Channel {
   public:
    Recorded(RecordingBackend& backend, net::FlowId id)
        : backend_(backend), id_(id) {}
    void send_message(std::int64_t, Completion on_complete) override {
      backend_.posts.push_back(id_);
      on_complete(backend_.sim_.now());
    }
    net::FlowId id() const override { return id_; }

   private:
    RecordingBackend& backend_;
    net::FlowId id_;
  };

  const sim::Simulator& sim_;
  std::vector<std::unique_ptr<Recorded>> channels_;
};

const std::vector<FlowArrival> kPairArrivals = {
    {sim::microseconds(1), 0, 1, 100}, {sim::microseconds(2), 1, 0, 100},
    {sim::microseconds(3), 0, 1, 100}, {sim::microseconds(4), 4, 2, 100},
    {sim::microseconds(5), 1, 0, 100}, {sim::microseconds(6), 2, 4, 100},
    {sim::microseconds(6), 4, 2, 100}};

TEST(TrafficSource, ChannelsAreKeyedByOrderedPairInFirstUseOrder) {
  // A serial scenario burst replays through a one-lane map: it must behave
  // exactly as a source without a map.
  for (const bool one_lane_map : {false, true}) {
    SCOPED_TRACE(one_lane_map ? "one-lane map" : "no lane map");
    Rig rig;
    RecordingBackend backend(rig.sim);
    rig.cluster.set_backend(&backend);
    const auto hosts = rig.hosts();
    traffic::TrafficSource source(rig.sim, rig.cluster, hosts,
                                  traffic::SourceOptions{reno(), {}, {}});
    if (one_lane_map) {
      source.set_lane_map([](const net::Host*) { return 0; }, 1);
    }
    source.install(kPairArrivals);
    EXPECT_TRUE(backend.opened.empty());  // One lane opens lazily.
    rig.sim.run();

    // (a, b) and (b, a) are distinct channels, a repeated pair reuses its
    // channel, and ids follow first use.
    using O = RecordingBackend::Opened;
    EXPECT_EQ(backend.opened,
              (std::vector<O>{{hosts[0], hosts[1], 1},
                              {hosts[1], hosts[0], 2},
                              {hosts[4], hosts[2], 3},
                              {hosts[2], hosts[4], 4}}));
    EXPECT_EQ(backend.posts, (std::vector<net::FlowId>{1, 2, 1, 3, 2, 4, 3}));
    EXPECT_EQ(source.completed(), kPairArrivals.size());
  }
}

TEST(TrafficSource, LaneModeOpensChannelsWithTheSerialReplaysIds) {
  Rig serial;
  RecordingBackend serial_backend(serial.sim);
  serial.cluster.set_backend(&serial_backend);
  traffic::TrafficSource serial_source(serial.sim, serial.cluster,
                                       serial.hosts(),
                                       traffic::SourceOptions{reno(), {}, {}});
  serial_source.install(kPairArrivals);
  serial.sim.run();

  Rig laned;
  laned.sim.configure_shards(2);
  RecordingBackend laned_backend(laned.sim);
  laned.cluster.set_backend(&laned_backend);
  const auto hosts = laned.hosts();
  traffic::TrafficSource laned_source(laned.sim, laned.cluster, hosts,
                                      traffic::SourceOptions{reno(), {}, {}});
  // Odd and even hosts replay in different lanes.
  laned_source.set_lane_map(
      [&hosts](const net::Host* h) {
        return static_cast<int>(std::find(hosts.begin(), hosts.end(), h) -
                                hosts.begin()) %
               2;
      },
      2);
  laned_source.install(kPairArrivals);  // Pre-creates every channel.

  ASSERT_EQ(laned_backend.opened.size(), serial_backend.opened.size());
  const auto serial_hosts = serial.hosts();
  const auto index = [](const std::vector<net::Host*>& hs,
                        const net::Host* h) {
    return std::find(hs.begin(), hs.end(), h) - hs.begin();
  };
  for (std::size_t i = 0; i < laned_backend.opened.size(); ++i) {
    const auto& l = laned_backend.opened[i];
    const auto& s = serial_backend.opened[i];
    EXPECT_EQ(l.id, s.id);
    EXPECT_EQ(index(hosts, l.src), index(serial_hosts, s.src));
    EXPECT_EQ(index(hosts, l.dst), index(serial_hosts, s.dst));
  }
}

/// The std::invalid_argument message install() throws on a 6-host rig of
/// `lanes` shards whose lane map puts host `host` in lane `lane` and every
/// other host in lane 0, or "" when it accepts the map.
std::string lane_map_error(std::size_t host, int lane, int lanes) {
  Rig rig;
  rig.sim.configure_shards(lanes);
  const auto hosts = rig.hosts();
  traffic::TrafficSource source(rig.sim, rig.cluster, hosts,
                                traffic::SourceOptions{reno(), {}, {}});
  source.set_lane_map(
      [&](const net::Host* h) { return h == hosts[host] ? lane : 0; }, lanes);
  try {
    source.install(kPairArrivals);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(TrafficSource, InstallRejectsLaneOutsideLanes) {
  // Host 3 sends nothing in kPairArrivals: the whole map is checked.
  EXPECT_EQ(lane_map_error(3, 1, 2), "");
  EXPECT_EQ(lane_map_error(3, 2, 2),
            "traffic host 3: lane 2 is outside [0, 2)");
  EXPECT_EQ(lane_map_error(0, -1, 2),
            "traffic host 0: lane -1 is outside [0, 2)");
}

// ------------------------------------------------------------------- jobs

TEST(TrafficJobs, ShuffleWavesBarrierOnEveryTransfer) {
  Rig rig(2);
  traffic::ShuffleConfig cfg;
  cfg.mappers = {rig.d.left[0], rig.d.left[1]};
  cfg.reducers = {rig.d.right[0], rig.d.right[1]};
  cfg.bytes_per_pair = 150'000;
  cfg.reduce_time = sim::milliseconds(10);
  cfg.waves = 3;
  cfg.cc = reno();
  traffic::ShuffleJob job(rig.sim, rig.cluster, cfg);
  job.start();
  rig.sim.run_until(sim::seconds(30));

  EXPECT_FALSE(job.running());
  EXPECT_EQ(job.waves_completed(), 3);
  ASSERT_EQ(job.transfers().size(), 3u * 4u);  // 2x2 pairs per wave
  EXPECT_EQ(job.open_transfers(), 0u);
  ASSERT_EQ(job.wave_times_seconds().size(), 3u);
  for (double w : job.wave_times_seconds()) {
    EXPECT_GE(w, sim::to_seconds(cfg.reduce_time));
  }
  // Barrier: wave k+1's transfers are posted only after every wave-k
  // transfer completed plus the reduce phase.
  for (int wave = 1; wave < 3; ++wave) {
    sim::SimTime prev_done = 0;
    for (int i = 0; i < 4; ++i) {
      prev_done = std::max(
          prev_done,
          job.transfers()[static_cast<std::size_t>((wave - 1) * 4 + i)]
              .completed);
    }
    for (int i = 0; i < 4; ++i) {
      EXPECT_GE(job.transfers()[static_cast<std::size_t>(wave * 4 + i)]
                    .arrival,
                prev_done + cfg.reduce_time)
          << "wave " << wave;
    }
  }
}

TEST(TrafficJobs, ShuffleSkipsColocatedMapperReducerPairs) {
  Rig rig(2);
  traffic::ShuffleConfig cfg;
  // Mappers and reducers share both hosts: the diagonal is local disk I/O.
  cfg.mappers = {rig.d.left[0], rig.d.left[1]};
  cfg.reducers = {rig.d.left[0], rig.d.left[1]};
  cfg.bytes_per_pair = 50'000;
  cfg.reduce_time = sim::milliseconds(1);
  cfg.waves = 1;
  cfg.cc = reno();
  traffic::ShuffleJob job(rig.sim, rig.cluster, cfg);
  job.start();
  rig.sim.run_until(sim::seconds(5));

  EXPECT_EQ(job.waves_completed(), 1);
  EXPECT_EQ(job.transfers().size(), 2u);  // 4 pairs minus the 2 colocated
  EXPECT_EQ(job.open_transfers(), 0u);
}

TEST(TrafficJobs, ServingRequestCompletesOnLastResponse) {
  Rig rig(3);
  traffic::ServingConfig cfg;
  cfg.frontend = rig.d.left[0];
  cfg.backends = {rig.d.right[0], rig.d.right[1], rig.d.right[2]};
  cfg.requests_per_second = 500.0;
  cfg.fanout = 0;  // every backend
  cfg.request_bytes = 2'000;
  cfg.response_bytes = 60'000;
  cfg.stop_time = sim::milliseconds(100);
  cfg.cc = reno();
  traffic::ServingJob job(rig.sim, rig.cluster, cfg);
  job.start();
  rig.sim.run_until(sim::seconds(20));

  EXPECT_GT(job.requests_issued(), 20u);
  EXPECT_EQ(job.requests_completed(), job.requests_issued());
  EXPECT_EQ(job.open_requests(), 0u);
  const auto lat = job.completed_latencies_seconds();
  ASSERT_EQ(lat.size(), job.requests_completed());
  // A fan-out-3 request moves 3 x 60 kB of responses after a request RTT:
  // strictly positive latency, and a max-over-legs must be at least the
  // one-way serialization of a single response over the 1 Gbps bottleneck.
  const double min_possible = 60'000.0 * 8.0 / 1e9;
  for (double l : lat) EXPECT_GT(l, min_possible);
  // The schedule is seeded: a second job with the same config issues the
  // same request count.
  sim::Simulator sim2;
  net::DumbbellConfig dcfg;
  dcfg.hosts_per_side = 3;
  auto d2 = net::make_dumbbell(sim2, dcfg);
  workload::Cluster cluster2(sim2);
  traffic::ServingConfig cfg2 = cfg;
  cfg2.frontend = d2.left[0];
  cfg2.backends = {d2.right[0], d2.right[1], d2.right[2]};
  traffic::ServingJob job2(sim2, cluster2, cfg2);
  job2.start();
  sim2.run_until(sim::seconds(20));
  EXPECT_EQ(job2.requests_issued(), job.requests_issued());
}

// ----------------------------------------- queue-layer incast reconciliation

struct IncastOutcome {
  std::int64_t sent = 0;       ///< Data packets transmitted by all senders.
  std::int64_t delivered = 0;  ///< Data packets received by the victim.
  std::int64_t enqueued = 0;   ///< Admitted at the forward bottleneck queue.
  std::int64_t dropped = 0;
  std::int64_t marked = 0;
  bool all_done = true;
};

/// N synchronized senders each push one short message at the same host
/// through the given bottleneck queue; returns the reconciled counters.
IncastOutcome run_incast(const net::QueueFactory& bottleneck,
                         const tcp::CcFactory& cc) {
  Rig rig(6, bottleneck);
  net::Host* victim = rig.d.right[0];
  std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
  int done = 0;
  for (int i = 0; i < 6; ++i) {
    flows.push_back(std::make_unique<tcp::TcpFlow>(
        rig.sim, *rig.d.left[i % 6], *victim, i + 1, cc()));
    // 40 full segments each: short enough to be an incast burst, big enough
    // to overflow a shallow buffer when six arrive at once.
    flows.back()->send_message(40 * (net::kDefaultMtu - net::kHeaderBytes),
                               [&done](sim::SimTime) { ++done; });
  }
  rig.sim.run_until(sim::seconds(30));

  IncastOutcome out;
  out.all_done = done == 6;
  for (const auto& f : flows) {
    out.sent += f->sender().stats().data_packets_sent;
    out.delivered += f->receiver().data_packets_received();
  }
  const net::QueueStats& qs = rig.d.bottleneck->queue().stats();
  out.enqueued = qs.enqueued_packets;
  out.dropped = qs.dropped_packets;
  out.marked = qs.marked_packets;
  return out;
}

TEST(TrafficIncast, DropTailDropsReconcileWithSentMinusDelivered) {
  // A ~16-packet buffer against a 6 x 40-segment synchronized burst: drops
  // are guaranteed, yet every flow must complete via retransmission.
  const auto out =
      run_incast(net::make_droptail_factory(16 * net::kDefaultMtu), reno());
  EXPECT_TRUE(out.all_done);
  EXPECT_GT(out.dropped, 0);
  EXPECT_EQ(out.marked, 0);
  // Every data packet that crossed the fabric was either admitted at the
  // bottleneck (and later delivered) or dropped there — the counters must
  // reconcile exactly, in packets and therefore in MTU-sized bytes.
  EXPECT_EQ(out.sent, out.enqueued + out.dropped);
  EXPECT_EQ(out.delivered, out.enqueued);
  EXPECT_EQ(out.sent - out.delivered, out.dropped);
}

TEST(TrafficIncast, EcnMarksInsteadOfDropsUnderDctcp) {
  // Deep buffer + shallow mark threshold: DCTCP keeps the incast lossless
  // while the queue marks aggressively.
  const auto out = run_incast(
      net::make_ecn_factory(400 * net::kDefaultMtu, 20 * net::kDefaultMtu),
      [] { return std::make_unique<tcp::DctcpCC>(); });
  EXPECT_TRUE(out.all_done);
  EXPECT_GT(out.marked, 0);
  EXPECT_EQ(out.dropped, 0);
  EXPECT_EQ(out.sent, out.enqueued);
  EXPECT_EQ(out.sent, out.delivered) << "lossless incast must deliver all";
}

TEST(TrafficIncast, RedMarkModeReconcilesUnderDctcp) {
  net::RedQueue::Config red;
  red.capacity_bytes = 400 * net::kDefaultMtu;
  red.min_threshold_bytes = 5 * net::kDefaultMtu;
  red.max_threshold_bytes = 40 * net::kDefaultMtu;
  red.max_probability = 0.5;
  red.ewma_weight = 0.2;  // Track the burst fast enough to act on it.
  red.mark_instead_of_drop = true;
  const auto out = run_incast(net::make_red_factory(red),
                              [] { return std::make_unique<tcp::DctcpCC>(); });
  EXPECT_TRUE(out.all_done);
  EXPECT_GT(out.marked, 0);
  // Marks never destroy packets: whatever RED did not drop on overflow must
  // reconcile exactly with the sent/delivered difference.
  EXPECT_EQ(out.sent, out.enqueued + out.dropped);
  EXPECT_EQ(out.sent - out.delivered, out.dropped);
}

// ------------------------------------------------- scenario integration

TEST(TrafficScenario, TrafficBurstInstallsALabeledSource) {
  Rig rig;
  scenario::ScenarioEngine engine(rig.sim, *rig.d.topology, rig.cluster);
  TrafficConfig cfg;
  cfg.pattern = Pattern::kIncast;
  cfg.epoch = sim::milliseconds(20);
  cfg.start = sim::milliseconds(10);
  cfg.stop = sim::milliseconds(90);
  cfg.mean_bytes = 30'000;
  cfg.incast_fanin = 3;
  engine.install(
      scenario::Scenario{}.traffic_burst(sim::milliseconds(5), "bg", cfg));
  rig.sim.run_until(sim::seconds(10));

  EXPECT_EQ(engine.applied_events(), 1);
  ASSERT_EQ(engine.traffic_sources().size(), 1u);
  const traffic::TrafficSource* src = engine.traffic_source("bg");
  ASSERT_NE(src, nullptr);
  EXPECT_EQ(engine.traffic_source("nope"), nullptr);
  EXPECT_EQ(src->posted(), 4u * 3u);
  EXPECT_EQ(src->completed(), src->posted());
}

// ------------------------------------------------- campaign determinism

/// One faulted run that also carries background traffic; rows capture both
/// job progress and the traffic FCT distribution.
void traffic_faulted_run(std::size_t run_index, std::uint64_t seed,
                         runner::CsvSink& csv) {
  Rig rig;
  workload::JobSpec spec;
  spec.name = "train";
  spec.flows = workload::single_flow(rig.d.left[0], rig.d.right[0], 600'000);
  spec.compute_time = sim::milliseconds(5);
  spec.max_iterations = 30;
  spec.cc = reno();
  workload::Job* job = rig.cluster.add_job(spec);

  TrafficConfig tcfg;
  tcfg.pattern = Pattern::kPoisson;
  tcfg.size_dist = SizeDist::kPareto;
  tcfg.flows_per_second = 300.0;
  tcfg.mean_bytes = 30'000;
  tcfg.stop = sim::milliseconds(400);
  tcfg.seed = sim::derive_seed(seed, 0x726166666963ULL);  // "raffic"

  scenario::Scenario s;
  s.traffic_burst(0, "bg", tcfg);
  s.link_down(sim::milliseconds(40), "swL", "swR");
  s.link_up(sim::milliseconds(90), "swL", "swR");
  s.drop_burst(sim::milliseconds(150), "swL", "swR", 0.02, seed);
  s.drop_burst(sim::milliseconds(300), "swL", "swR", 0.0);

  scenario::ScenarioEngine engine(rig.sim, *rig.d.topology, rig.cluster);
  engine.install(s);
  rig.cluster.start_all();
  rig.sim.run_until(sim::seconds(20));

  const traffic::TrafficSource* bg = engine.traffic_source("bg");
  const analysis::FctStats fct =
      analysis::fct_stats(bg->completed_fcts_seconds(), bg->open());
  csv.append(run_index,
             std::vector<double>{
                 static_cast<double>(run_index),
                 static_cast<double>(job->completed_iterations()),
                 sim::to_seconds(job->iterations().back().iter_end),
                 static_cast<double>(fct.completed),
                 static_cast<double>(fct.open), fct.p50_s, fct.p99_s,
                 static_cast<double>(bg->bytes_completed())});
}

std::string traffic_faulted_campaign(int threads) {
  runner::CsvSink csv({"run", "iters", "end_s", "fct_n", "fct_open",
                       "fct_p50", "fct_p99", "bg_bytes"});
  std::vector<std::uint64_t> seeds = {21, 22, 23, 24};
  runner::CampaignOptions opts;
  opts.threads = threads;
  runner::run_campaign<std::uint64_t, int>(
      seeds,
      [&](const std::uint64_t& seed, std::size_t i) {
        traffic_faulted_run(i, seed, csv);
        return 0;
      },
      opts);
  return csv.serialize();
}

TEST(TrafficDeterminism, FaultedTrafficCampaignByteIdenticalAcrossThreads) {
  const std::string serial = traffic_faulted_campaign(1);
  EXPECT_NE(serial.find("\n3,"), std::string::npos);
  const std::string parallel = traffic_faulted_campaign(4);
  EXPECT_EQ(parallel, serial)
      << "traffic generation must not depend on campaign scheduling";
}

}  // namespace
}  // namespace mltcp
