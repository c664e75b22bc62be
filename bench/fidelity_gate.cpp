// Automated fidelity gate between the packet-level and flow-level backends:
// runs sampled workload slices through both and fails (exit 1) when the
// flow-level approximation drifts beyond the documented bounds, so a change
// to either backend that silently degrades the correspondence breaks CI
// instead of quietly invalidating every flowsim campaign.
//
// Slices and bounds (see DESIGN.md "Flow-level backend" and EXPERIMENTS.md):
//  - training convergence (dumbbell, 2 and 4 MLTCP jobs at comm fraction
//    ~0.21, so the jobs are fully interleavable — the paper's regime):
//    completed iterations must match within 1; converged (tail-mean)
//    iteration time within 25%; the number of iterations until the schedule
//    settles (iteration time within 15% of the interleaved ideal) within 6
//    iterations of the packet backend. The fluid model has no slow start,
//    loss recovery or queueing delay, so it runs slightly fast — 25% is the
//    parity bound the backend's unit test states as well.
//  - FCT tails (leaf-spine Poisson/Pareto matrix, identical arrival list on
//    both backends): p50 within 35% and p99 within 50% (the fluid model has
//    no queueing delay, which is exactly what stretches the packet p99),
//    and the completed-transfer counts within 5% — so the tail metrics the
//    flowsim scale campaigns report mean what they would at packet
//    fidelity, up to these stated factors.
//  - solver health: the water-filling allocator must stay event-driven —
//    mean bottleneck-freeze rounds per recompute <= 8 and zero stalls on
//    healthy (fault-free) slices.
//  - mode identity: every fluid slice is re-run with
//    FlowSimConfig::full_recompute (the reference global waterfill) and the
//    model outputs — per-job iteration-time vectors, FCT vectors — must be
//    BIT-identical to the incremental dirty-set path. The incremental
//    solver is an exact-arithmetic optimization, not an approximation; any
//    divergence is a bug, so the bound is zero mismatches, not a tolerance.
//
// Modes:
//   fidelity_gate          full gate (the recorded bounds)
//   fidelity_gate --quick  CI smoke variant: shorter slices, same bounds
// Any other argument exits 2.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "analysis/metrics.hpp"
#include "bench_common.hpp"
#include "core/mltcp.hpp"
#include "flowsim/flow_simulator.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "tcp/reno.hpp"
#include "traffic/pattern.hpp"
#include "traffic/source.hpp"
#include "workload/cluster.hpp"

namespace {

using namespace mltcp;

struct GateCheck {
  std::string slice;
  std::string metric;
  double value = 0.0;  ///< Measured (relative error or raw count).
  double bound = 0.0;  ///< value <= bound passes.
  bool ok = false;
};

std::vector<GateCheck> g_checks;

void check(const std::string& slice, const std::string& metric, double value,
           double bound) {
  GateCheck c{slice, metric, value, bound, value <= bound};
  std::printf("GATE slice=%s metric=%s value=%.4f bound=%.4f verdict=%s\n",
              c.slice.c_str(), c.metric.c_str(), c.value, c.bound,
              c.ok ? "ok" : "FAIL");
  std::fflush(stdout);
  g_checks.push_back(std::move(c));
}

double rel_error(double measured, double reference) {
  return reference != 0.0 ? std::abs(measured - reference) / reference
                          : std::abs(measured);
}

/// Bit-exact divergence count between two model-output vectors: a length
/// mismatch counts the length delta, every element compared with == (no
/// tolerance — the incremental solver must reproduce the reference global
/// waterfill exactly).
double mismatches(const std::vector<double>& a, const std::vector<double>& b) {
  double n = std::abs(static_cast<double>(a.size()) -
                      static_cast<double>(b.size()));
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) n += 1.0;
  }
  return n;
}

// --------------------------------------------------- training convergence

/// Per-job iteration 2 flows x 4 MB = 64 ms of bottleneck time, compute
/// 240 ms: comm fraction ~0.21, so up to 4 jobs are fully interleavable —
/// the regime where MLTCP's convergence dynamics are the thing under test.
constexpr std::int64_t kTrainFlowBytes = 4'000'000;
constexpr double kIdealPeriodS = 2 * 8.0 * kTrainFlowBytes / 1e9 + 0.240;

struct TrainingOutcome {
  std::vector<int> iterations;     ///< Completed per job.
  double tail_mean_s = 0.0;        ///< Converged iteration time, job mean.
  double converge_iter = 0.0;      ///< Mean iterations until interleaved.
  std::vector<double> iter_times;  ///< All jobs' iteration times, in order.
  flowsim::FlowSimStats fs_stats;  ///< Zero-initialized on the packet run.
};

/// Iterations before the schedule settles: one past the last iteration
/// whose duration still exceeded the interleaved ideal by more than 15%.
double converged_after(const std::vector<double>& times) {
  std::size_t after = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i] > 1.15 * kIdealPeriodS) after = i + 1;
  }
  return static_cast<double>(after);
}

/// `n_jobs` MLTCP training jobs on a shared dumbbell bottleneck, identical
/// workload on either backend.
TrainingOutcome run_training(bool fluid, int n_jobs, int iters,
                             bool full_recompute = false) {
  sim::Simulator sim;
  net::DumbbellConfig dc;
  dc.hosts_per_side = n_jobs;
  auto d = net::make_dumbbell(sim, dc);
  std::unique_ptr<flowsim::FlowSimulator> fs;
  workload::Cluster cluster(sim);
  if (fluid) {
    flowsim::FlowSimConfig fc;
    fc.full_recompute = full_recompute;
    fs = std::make_unique<flowsim::FlowSimulator>(sim, *d.topology, fc);
    cluster.set_backend(fs.get());
  }

  std::vector<workload::Job*> jobs;
  for (int j = 0; j < n_jobs; ++j) {
    workload::JobSpec spec;
    spec.name = "train" + std::to_string(j);
    spec.flows = {{d.left[j], d.right[j], kTrainFlowBytes},
                  {d.left[j], d.right[j], kTrainFlowBytes}};
    spec.compute_time = sim::milliseconds(240);
    spec.max_iterations = iters;
    spec.start_time = sim::milliseconds(7 * j);
    spec.cc = core::mltcp_reno_factory();
    jobs.push_back(cluster.add_job(spec));
  }
  cluster.start_all();
  sim.run_until(sim::seconds(120));

  TrainingOutcome out;
  double tail = 0.0;
  double converge = 0.0;
  for (const workload::Job* job : jobs) {
    out.iterations.push_back(job->completed_iterations());
    const auto times = job->iteration_times_seconds();
    out.iter_times.insert(out.iter_times.end(), times.begin(), times.end());
    tail += analysis::tail_mean(times, 5);
    converge += converged_after(times);
  }
  out.tail_mean_s = tail / static_cast<double>(n_jobs);
  out.converge_iter = converge / static_cast<double>(n_jobs);
  if (fs) out.fs_stats = fs->stats();
  return out;
}

void gate_training(int n_jobs, int iters) {
  const std::string slice = "train" + std::to_string(n_jobs);
  const TrainingOutcome packet = run_training(false, n_jobs, iters);
  const TrainingOutcome fluid = run_training(true, n_jobs, iters);
  std::printf("  (%s: packet tail-mean %.3fs converged@%.1f | fluid "
              "tail-mean %.3fs converged@%.1f | ideal %.3fs)\n",
              slice.c_str(), packet.tail_mean_s, packet.converge_iter,
              fluid.tail_mean_s, fluid.converge_iter, kIdealPeriodS);

  int max_iter_diff = 0;
  for (int j = 0; j < n_jobs; ++j) {
    max_iter_diff = std::max(
        max_iter_diff, std::abs(packet.iterations[j] - fluid.iterations[j]));
  }
  check(slice, "iterations_diff", max_iter_diff, 1.0);
  check(slice, "tail_mean_rel_err",
        rel_error(fluid.tail_mean_s, packet.tail_mean_s), 0.25);
  check(slice, "convergence_iter_diff",
        std::abs(packet.converge_iter - fluid.converge_iter), 6.0);

  const auto& st = fluid.fs_stats;
  check(slice, "waterfill_rounds_per_recompute",
        st.recomputes > 0 ? static_cast<double>(st.waterfill_rounds) /
                                static_cast<double>(st.recomputes)
                          : 0.0,
        8.0);
  check(slice, "stalls", static_cast<double>(st.stalls), 0.0);

  // Mode identity: the incremental dirty-set solver vs. the reference full
  // waterfill, same workload. Bit-exact or bust.
  const TrainingOutcome full = run_training(true, n_jobs, iters, true);
  double iter_diff = mismatches(fluid.iter_times, full.iter_times);
  for (int j = 0; j < n_jobs; ++j) {
    if (fluid.iterations[j] != full.iterations[j]) iter_diff += 1.0;
  }
  check(slice, "mode_identity_mismatches", iter_diff, 0.0);
}

// ------------------------------------------------------------- FCT tails

struct FctOutcome {
  analysis::FctStats stats;
  std::size_t posted = 0;
  std::vector<double> fcts;  ///< Completed FCTs in completion order.
  flowsim::FlowSimStats fs_stats;
};

/// Replays one fixed Poisson/Pareto arrival list over a small leaf-spine
/// fabric. The list is a pure function of the config seed, so the packet
/// and fluid runs see byte-identical traffic.
FctOutcome run_fct(bool fluid, bool quick, bool full_recompute = false) {
  sim::Simulator sim;
  net::LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.spines = 2;
  cfg.host_rate_bps = 4e9;
  cfg.fabric_rate_bps = 1e9;
  auto ls = net::make_leaf_spine(sim, cfg);
  std::unique_ptr<flowsim::FlowSimulator> fs;
  workload::Cluster cluster(sim);
  if (fluid) {
    flowsim::FlowSimConfig fc;
    fc.full_recompute = full_recompute;
    fs = std::make_unique<flowsim::FlowSimulator>(sim, *ls.topology, fc);
    cluster.set_backend(fs.get());
  }

  std::vector<net::Host*> hosts;
  for (const auto& rack : ls.racks) {
    hosts.insert(hosts.end(), rack.begin(), rack.end());
  }
  traffic::TrafficSource source(
      sim, cluster, hosts,
      traffic::SourceOptions{[] { return std::make_unique<tcp::RenoCC>(); },
                             {},
                             {}});
  traffic::TrafficConfig tc;
  tc.pattern = traffic::Pattern::kPoisson;
  tc.size_dist = traffic::SizeDist::kPareto;
  tc.mean_bytes = 40'000;
  tc.flows_per_second = 1500.0;
  tc.start = 0;
  tc.stop = sim::seconds(quick ? 1 : 3);
  tc.seed = 11;
  source.install(tc);

  // Generous drain window past the last arrival, so only pathological
  // transfers stay open.
  sim.run_until(tc.stop + sim::seconds(2));

  FctOutcome out;
  out.fcts = source.completed_fcts_seconds();
  out.stats = analysis::fct_stats(out.fcts, source.open());
  out.posted = source.posted();
  if (fs) out.fs_stats = fs->stats();
  return out;
}

void gate_fct(bool quick) {
  const FctOutcome packet = run_fct(false, quick);
  const FctOutcome fluid = run_fct(true, quick);
  std::printf("  (posted %zu; packet completed %zu p50 %.4fs p99 %.4fs | "
              "fluid completed %zu p50 %.4fs p99 %.4fs)\n",
              packet.posted, packet.stats.completed, packet.stats.p50_s,
              packet.stats.p99_s, fluid.stats.completed, fluid.stats.p50_s,
              fluid.stats.p99_s);

  check("fct", "completed_rel_err",
        rel_error(static_cast<double>(fluid.stats.completed),
                  static_cast<double>(packet.stats.completed)),
        0.05);
  check("fct", "p50_rel_err", rel_error(fluid.stats.p50_s, packet.stats.p50_s),
        0.35);
  check("fct", "p99_rel_err", rel_error(fluid.stats.p99_s, packet.stats.p99_s),
        0.50);

  const auto& st = fluid.fs_stats;
  check("fct", "waterfill_rounds_per_recompute",
        st.recomputes > 0 ? static_cast<double>(st.waterfill_rounds) /
                                static_cast<double>(st.recomputes)
                          : 0.0,
        8.0);
  check("fct", "stalls", static_cast<double>(st.stalls), 0.0);

  // Mode identity: the completed-FCT vector (order included) must be
  // bit-identical between the incremental and full-recompute solvers.
  const FctOutcome full = run_fct(true, quick, true);
  check("fct", "mode_identity_mismatches", mismatches(fluid.fcts, full.fcts),
        0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_flag(argc, argv);
  bench::print_header(quick ? "fidelity gate (quick)" : "fidelity gate");

  gate_training(2, quick ? 10 : 20);
  gate_training(4, quick ? 10 : 20);
  gate_fct(quick);

  auto csv = bench::open_csv("fidelity_gate",
                             {"slice", "metric", "value", "bound", "ok"});
  std::size_t failures = 0;
  for (const GateCheck& c : g_checks) {
    csv->row({c.slice, c.metric, std::to_string(c.value),
              std::to_string(c.bound), c.ok ? "1" : "0"});
    if (!c.ok) ++failures;
  }

  if (failures > 0) {
    std::printf("\nFIDELITY GATE FAILED: %zu of %zu checks out of bounds\n",
                failures, g_checks.size());
    return 1;
  }
  std::printf("\nFidelity gate passed: %zu checks within bounds.\n",
              g_checks.size());
  return 0;
}
