// Flow-level scale campaign: how far past the packet path's flow ceiling
// the flowsim backend goes. bench/cluster_scale tops out at 256 jobs x 16
// flows = 4096 concurrent transfers on the packet path; this campaign pushes
// the flow-level backend through a >= 1,000,000-transfer poisson point
// (≈244x the packet ceiling) on the same leaf-spine fabric — the
// quantitative case for the incremental dirty-set waterfill + drain-event
// heap (PR 9) on top of the hybrid-fidelity split (flowsim for scale,
// packets for fidelity, bench/fidelity_gate for the bound between them).
//
// Scenarios, in execution order:
//  - poisson-1m: the million-transfer Poisson/Pareto matrix (16,000 flows/s,
//    --flows scales the arrival budget). Runs FIRST so its rss_delta_mb is
//    an honest attribution: the kernel peak-RSS high-water mark never
//    decreases, so only the first/biggest run's delta measures itself
//    rather than the campaign's tallest predecessor.
//  - poisson: the PR 7-era 480,000-transfer point, kept for baseline
//    comparability (transfers/sec gate in record_flowsim_baseline.sh).
//  - training: MLTCP training jobs — the weighted max-min path
//    (F(bytes_ratio) refresh + water-filling) under sustained collectives.
//
// Solver counters (recomputes, full_recomputes, waterfill_rounds/channels,
// frozen_skips, dirty_links, heap_updates) are read back through the
// telemetry MetricRegistry "flowsim/..." group (telemetry::collect_flowsim)
// and emitted in the RESULT/CSV lines, so algorithmic regressions — e.g. a
// silent fall-back to full recomputes — show up in CI, not just wall time.
//
// Modes:
//   flowsim_scale            full campaign (enforces the 1M and 100x floors)
//   flowsim_scale --quick    CI smoke variant (~1/10 transfers, no floors)
//   flowsim_scale --flows=N  arrival budget of the poisson-1m point

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/metrics.hpp"
#include "bench_common.hpp"
#include "core/mltcp.hpp"
#include "flowsim/flow_simulator.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "tcp/reno.hpp"
#include "telemetry/collect.hpp"
#include "telemetry/metrics.hpp"
#include "traffic/pattern.hpp"
#include "traffic/source.hpp"
#include "workload/cluster.hpp"

namespace {

using namespace mltcp;

/// The packet path's ceiling this campaign is measured against
/// (cluster_scale: 256 jobs x 16 flows).
constexpr std::int64_t kPacketCeiling = 4096;
constexpr std::int64_t kTransferFloor = 100 * kPacketCeiling;  // 409,600.
/// Completion floor of the poisson-1m point (full mode, default --flows).
constexpr std::int64_t kMillionFloor = 1'000'000;
/// Default arrival budget of poisson-1m: 16,000 flows/s for 63 s.
constexpr std::int64_t kDefaultFlows = 1'008'000;

struct RunResult {
  std::string name;
  std::int64_t transfers = 0;  ///< Messages posted.
  std::int64_t completed = 0;
  double sim_s = 0.0;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  std::int64_t recomputes = 0;
  std::int64_t full_recomputes = 0;
  std::int64_t waterfill_rounds = 0;
  std::int64_t waterfill_channels = 0;
  std::int64_t frozen_skips = 0;
  std::int64_t dirty_links = 0;
  std::int64_t heap_updates = 0;
  double p99_fct_s = 0.0;  ///< 0 when the scenario has no FCT records.
  double rss_mb = 0.0;        ///< Process high-water mark at record time.
  double rss_delta_mb = 0.0;  ///< High-water growth across this run.
};

void print_result(const RunResult& r) {
  const double tps =
      r.wall_s > 0.0 ? static_cast<double>(r.completed) / r.wall_s : 0.0;
  const double eps =
      r.wall_s > 0.0 ? static_cast<double>(r.events) / r.wall_s : 0.0;
  // fills_per_transfer is the gated work metric: channel-rate freezes the
  // solver performed per completed transfer. The old global waterfill paid
  // (3 recomputes/transfer) x (all busy channels); the dirty-set recompute
  // pays only the affected closure.
  const double fpt = r.completed > 0
                         ? static_cast<double>(r.waterfill_channels) /
                               static_cast<double>(r.completed)
                         : 0.0;
  std::printf("RESULT name=%s transfers=%" PRId64 " completed=%" PRId64
              " sim_s=%.3f events=%" PRIu64 " wall_s=%.4f "
              "transfers_per_sec=%.1f events_per_sec=%.1f recomputes=%" PRId64
              " full_recomputes=%" PRId64 " waterfill_rounds=%" PRId64
              " waterfill_channels=%" PRId64 " fills_per_transfer=%.3f"
              " frozen_skips=%" PRId64 " dirty_links=%" PRId64
              " heap_updates=%" PRId64
              " p99_fct_s=%.5f peak_rss_mb=%.1f rss_delta_mb=%.1f\n",
              r.name.c_str(), r.transfers, r.completed, r.sim_s, r.events,
              r.wall_s, tps, eps, r.recomputes, r.full_recomputes,
              r.waterfill_rounds, r.waterfill_channels, fpt, r.frozen_skips,
              r.dirty_links, r.heap_updates, r.p99_fct_s, r.rss_mb,
              r.rss_delta_mb);
  std::fflush(stdout);
}

/// Reads the solver counters back out of the telemetry registry's
/// "flowsim/..." metric group — the same consolidated path a serving
/// deployment would scrape — rather than poking the stats struct directly.
void fill_solver_counters(RunResult& r, const flowsim::FlowSimulator& fs) {
  telemetry::MetricRegistry reg;
  telemetry::collect_flowsim(reg, "flowsim", fs.stats());
  r.recomputes = reg.counter("flowsim/recomputes").value();
  r.full_recomputes = reg.counter("flowsim/full_recomputes").value();
  r.waterfill_rounds = reg.counter("flowsim/waterfill_rounds").value();
  r.waterfill_channels = reg.counter("flowsim/waterfill_channels").value();
  r.frozen_skips = reg.counter("flowsim/frozen_skips").value();
  r.dirty_links = reg.counter("flowsim/dirty_links").value();
  r.heap_updates = reg.counter("flowsim/heap_updates").value();
  r.transfers = reg.counter("flowsim/messages_posted").value();
  r.completed = reg.counter("flowsim/messages_completed").value();
}

/// The cluster_scale leaf-spine fabric: 16 racks x 16 hosts, 4 spines.
net::LeafSpine make_fabric(sim::Simulator& sim) {
  net::LeafSpineConfig cfg;
  cfg.racks = 16;
  cfg.hosts_per_rack = 16;
  cfg.spines = 4;
  cfg.host_rate_bps = 4e9;
  cfg.fabric_rate_bps = 1e9;
  return net::make_leaf_spine(sim, cfg);
}

std::vector<net::Host*> all_hosts(const net::LeafSpine& ls) {
  std::vector<net::Host*> hosts;
  for (const auto& rack : ls.racks) {
    hosts.insert(hosts.end(), rack.begin(), rack.end());
  }
  return hosts;
}

struct PoissonSpec {
  std::string name;
  double flows_per_second = 8000.0;
  int seconds = 60;
};

/// Poisson/Pareto matrix over the whole fabric.
RunResult run_poisson(const PoissonSpec& spec) {
  bench::RssProbe rss = bench::RssProbe::begin();
  sim::Simulator sim;
  net::LeafSpine ls = make_fabric(sim);
  flowsim::FlowSimulator fs(sim, *ls.topology);
  workload::Cluster cluster(sim);
  cluster.set_backend(&fs);

  traffic::TrafficSource source(
      sim, cluster, all_hosts(ls),
      traffic::SourceOptions{[] { return std::make_unique<tcp::RenoCC>(); },
                             {},
                             {}});
  traffic::TrafficConfig tc;
  tc.pattern = traffic::Pattern::kPoisson;
  tc.size_dist = traffic::SizeDist::kPareto;
  tc.mean_bytes = 40'000;
  tc.flows_per_second = spec.flows_per_second;
  tc.start = 0;
  tc.stop = sim::seconds(spec.seconds);
  tc.seed = 31;
  source.install(tc);

  const sim::SimTime horizon = tc.stop + sim::seconds(5);
  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until(horizon);
  const auto t1 = std::chrono::steady_clock::now();

  rss.end();
  RunResult r;
  r.name = spec.name;
  fill_solver_counters(r, fs);
  r.sim_s = sim::to_seconds(horizon);
  r.events = sim.events_executed();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.p99_fct_s =
      analysis::fct_stats(source.completed_fcts_seconds(), source.open())
          .p99_s;
  r.rss_mb = rss.after_mb;
  r.rss_delta_mb = rss.delta_mb();
  return r;
}

/// MLTCP training jobs on the fabric: 256 jobs x 4 flows, enough iterations
/// that the weighted-allocation path carries >= 100k messages in the full
/// run. Placement mirrors cluster_scale (rack r -> rack r+1 round-robin).
RunResult run_training(bool quick) {
  bench::RssProbe rss = bench::RssProbe::begin();
  sim::Simulator sim;
  net::LeafSpine ls = make_fabric(sim);
  flowsim::FlowSimulator fs(sim, *ls.topology);
  workload::Cluster cluster(sim);
  cluster.set_backend(&fs);

  const int n_jobs = 256;
  const int flows_per_job = 4;
  const int iterations = quick ? 10 : 100;
  const int racks = static_cast<int>(ls.racks.size());
  const int hosts_per_rack = static_cast<int>(ls.racks[0].size());
  for (int j = 0; j < n_jobs; ++j) {
    const int src_rack = j % racks;
    const int dst_rack = (src_rack + 1) % racks;
    const int base_host = (j / racks) % hosts_per_rack;
    workload::JobSpec spec;
    spec.name = "job" + std::to_string(j);
    for (int f = 0; f < flows_per_job; ++f) {
      const int h = (base_host + f) % hosts_per_rack;
      spec.flows.push_back(
          workload::FlowSpec{ls.racks[src_rack][h], ls.racks[dst_rack][h],
                             500'000});
    }
    spec.compute_time = sim::milliseconds(50);
    spec.max_iterations = iterations;
    spec.start_time = sim::milliseconds(5 * (j % 64));
    spec.cc = core::mltcp_reno_factory();
    cluster.add_job(spec);
  }
  cluster.start_all();

  const sim::SimTime horizon = sim::seconds(quick ? 40 : 400);
  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until(horizon);
  const auto t1 = std::chrono::steady_clock::now();

  rss.end();
  RunResult r;
  r.name = "training";
  fill_solver_counters(r, fs);
  r.sim_s = sim::to_seconds(horizon);
  r.events = sim.events_executed();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.rss_mb = rss.after_mb;
  r.rss_delta_mb = rss.delta_mb();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::int64_t flows = kDefaultFlows;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strncmp(argv[i], "--flows=", 8) == 0) {
      flows = std::max<std::int64_t>(1, std::atoll(argv[i] + 8));
    }
  }
  bench::print_header(quick ? "flowsim scale (quick)" : "flowsim scale");
  std::printf("packet-path ceiling (cluster_scale): %" PRId64
              " flows; poisson floor: %" PRId64 " transfers (100x); "
              "poisson-1m floor: %" PRId64 " completed\n",
              kPacketCeiling, kTransferFloor, kMillionFloor);

  // poisson-1m first: the kernel RSS high-water mark only grows, so only
  // the biggest point measured first gets an honest rss_delta_mb.
  PoissonSpec million;
  million.name = "poisson-1m";
  million.flows_per_second = 16000.0;
  million.seconds =
      quick ? 6
            : static_cast<int>((flows + 15'999) / 16'000);  // ceil to budget.

  std::vector<RunResult> results;
  results.push_back(run_poisson(million));
  PoissonSpec base;
  base.name = "poisson";
  base.flows_per_second = 8000.0;
  base.seconds = quick ? 6 : 60;
  results.push_back(run_poisson(base));
  results.push_back(run_training(quick));
  for (const RunResult& r : results) print_result(r);

  auto csv = bench::open_csv(
      "flowsim_scale",
      {"name", "transfers", "completed", "sim_s", "events",
       "wall_s", "recomputes", "full_recomputes", "waterfill_rounds",
       "waterfill_channels", "frozen_skips", "dirty_links", "heap_updates",
       "p99_fct_s", "peak_rss_mb", "rss_delta_mb"});
  for (const RunResult& r : results) {
    csv->row({r.name, std::to_string(r.transfers), std::to_string(r.completed),
              std::to_string(r.sim_s),
              std::to_string(r.events), std::to_string(r.wall_s),
              std::to_string(r.recomputes), std::to_string(r.full_recomputes),
              std::to_string(r.waterfill_rounds),
              std::to_string(r.waterfill_channels),
              std::to_string(r.frozen_skips), std::to_string(r.dirty_links),
              std::to_string(r.heap_updates), std::to_string(r.p99_fct_s),
              std::to_string(r.rss_mb), std::to_string(r.rss_delta_mb)});
  }

  bool failed = false;
  if (!quick) {
    const std::int64_t million_done = results[0].completed;
    const std::int64_t completed = results[1].completed;
    std::printf("\nscale ratio: %" PRId64 " completed transfers = %.0fx the "
                "packet ceiling (poisson-1m: %" PRId64 ")\n",
                completed,
                static_cast<double>(completed) /
                    static_cast<double>(kPacketCeiling),
                million_done);
    if (completed < kTransferFloor) {
      std::printf("FLOWSIM SCALE FAILED: %" PRId64 " < %" PRId64
                  " transfers\n",
                  completed, kTransferFloor);
      failed = true;
    }
    if (flows >= kDefaultFlows && million_done < kMillionFloor) {
      std::printf("FLOWSIM 1M FAILED: %" PRId64 " < %" PRId64
                  " completed transfers\n",
                  million_done, kMillionFloor);
      failed = true;
    }
  }
  return failed ? 1 : 0;
}
