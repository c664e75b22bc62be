// Capacity planning for an ML cluster operator: given a mix of training
// jobs on one bottleneck, report
//   - whether a fully interleaved schedule exists (centralized optimizer),
//   - the iteration times MLTCP is predicted to converge to (flow-level
//     simulator on a dumbbell),
//   - how many iterations convergence takes from a cold start,
//   - a short packet-level MLTCP-Reno spot check of the same mix, with every
//     component's counters absorbed into one telemetry::MetricRegistry and
//     printed as a single consolidated stats table.
//
//   ./build/examples/cluster_report                # default mix
//   ./build/examples/cluster_report 1.8:0.15 1.8:0.15 1.2:0.25
//   ./build/examples/cluster_report 1.8:0.15 1.8:0.15 + 1.2:0.25 1.2:0.25
//
// Each argument is one job as <period_seconds>:<comm_fraction>; a literal
// '+' separates independent mixes. Multiple mixes are analyzed in parallel
// through the campaign runner (MLTCP_THREADS controls sharding) and the
// reports print in argument order regardless of which finishes first.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/dumbbell_run.hpp"
#include "analysis/metrics.hpp"
#include "core/mltcp.hpp"
#include "net/topology.hpp"
#include "runner/campaign.hpp"
#include "sched/centralized.hpp"
#include "telemetry/collect.hpp"
#include "telemetry/metrics.hpp"
#include "workload/cluster.hpp"
#include "workload/collective.hpp"

using namespace mltcp;

namespace {

struct JobMix {
  double period_s = 0.0;
  double comm_fraction = 0.0;
};

std::vector<std::vector<JobMix>> parse(int argc, char** argv) {
  std::vector<std::vector<JobMix>> mixes(1);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "+") == 0) {
      if (!mixes.back().empty()) mixes.emplace_back();
      continue;
    }
    JobMix job;
    if (std::sscanf(argv[i], "%lf:%lf", &job.period_s,
                    &job.comm_fraction) != 2 ||
        job.period_s <= 0.0 || job.comm_fraction <= 0.0 ||
        job.comm_fraction >= 1.0) {
      std::fprintf(stderr, "bad job spec '%s' (want period:comm_fraction)\n",
                   argv[i]);
      std::exit(2);
    }
    mixes.back().push_back(job);
  }
  if (mixes.back().empty()) mixes.pop_back();
  if (mixes.empty()) {
    // Default: the paper's Figure 2 mix.
    mixes = {{{1.2, 0.25}, {1.8, 0.15}, {1.8, 0.15}, {1.8, 0.15}}};
  }
  return mixes;
}

/// Packet-level spot check: the same mix under MLTCP-Reno on a dumbbell for
/// a few iterations, reported as one consolidated registry table instead of
/// hand-rolled per-component printouts.
runner::Report packet_validation(const std::vector<JobMix>& mix) {
  runner::Report rep;
  constexpr int kIterations = 10;

  sim::Simulator sim;
  net::DumbbellConfig dcfg;
  dcfg.hosts_per_side = std::max<int>(2, static_cast<int>(mix.size()));
  net::Dumbbell d = net::make_dumbbell(sim, dcfg);
  workload::Cluster cluster(sim);

  double horizon_s = 0.0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const double comm_s = mix[i].period_s * mix[i].comm_fraction;
    const auto bytes = static_cast<std::int64_t>(
        comm_s * dcfg.bottleneck_rate_bps / 8.0);
    core::MltcpConfig cfg;
    cfg.tracker.total_bytes = bytes;
    cfg.tracker.comp_time =
        sim::from_seconds((mix[i].period_s - comm_s) / 2.0);

    workload::JobSpec spec;
    spec.name = "job" + std::to_string(i);
    spec.flows = workload::single_flow(d.left[i], d.right[i], bytes);
    spec.compute_time = sim::from_seconds(mix[i].period_s - comm_s);
    spec.max_iterations = kIterations;
    spec.cc = core::mltcp_reno_factory(cfg);
    cluster.add_job(spec);
    horizon_s = std::max(horizon_s, mix[i].period_s);
  }

  cluster.start_all();
  // Generous horizon: even a badly contended cold start finishes well within
  // a few periods per iteration.
  sim.run_until(sim::from_seconds(horizon_s * kIterations * 4.0));

  telemetry::MetricRegistry reg;
  telemetry::collect_cluster(reg, "cluster", cluster);
  telemetry::collect_link(reg, "net/bottleneck", *d.bottleneck);
  telemetry::collect_switch(reg, "net/left_switch", *d.left_switch);
  telemetry::collect_switch(reg, "net/right_switch", *d.right_switch);

  rep.addf("\npacket-level validation (MLTCP-Reno, %d iterations/job):\n",
           kIterations);
  rep.add(reg.table());
  return rep;
}

/// Sets `truncated` (and stops early) when the flow-level run hit its time
/// budget before every job finished.
runner::Report analyze(const std::vector<JobMix>& mix, bool& truncated) {
  runner::Report rep;
  double utilization = 0.0;
  for (const auto& j : mix) utilization += j.comm_fraction;
  rep.addf("cluster report: %zu jobs, bottleneck utilization %.2f\n\n",
           mix.size(), utilization);

  // 1. Does an interleaved schedule exist at all? (centralized view)
  std::vector<sched::PeriodicDemand> demands;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    demands.push_back(sched::PeriodicDemand{
        "job" + std::to_string(i), sim::from_seconds(mix[i].period_s),
        sim::from_seconds(mix[i].period_s * mix[i].comm_fraction)});
  }
  const sched::Schedule schedule = sched::optimize_interleaving(demands);
  rep.addf("centralized optimizer: hyperperiod %.2fs, residual overlap "
           "%.4fs -> %s\n",
           sim::to_seconds(schedule.hyperperiod),
           sim::to_seconds(schedule.excess),
           schedule.excess == 0 ? "fully interleavable"
                                : "NOT fully interleavable");
  rep.addf("optimal offsets:");
  for (const auto off : schedule.offsets) {
    rep.addf(" %.3fs", sim::to_seconds(off));
  }
  rep.addf("\n\n");

  // 2. What does distributed MLTCP converge to? (flow-level model)
  std::vector<analysis::PeriodicJob> jobs;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const double comm_s = mix[i].period_s * mix[i].comm_fraction;
    jobs.push_back({comm_s, mix[i].period_s - comm_s,
                    0.01 * static_cast<double>(i),  // symmetry breaker
                    0.0});
  }
  const auto run = analysis::run_dumbbell(jobs, nullptr, 1, 300, 1e4);
  truncated = run.truncated;
  if (truncated) return rep;

  rep.addf("MLTCP (flowsim dumbbell, Slope 1.75 / Intercept 0.25):\n");
  rep.addf("%-6s %10s %14s %16s %14s\n", "job", "ideal_s", "converged_s",
           "slowdown", "converged_by");
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto times = run.iteration_times(j);
    const double converged = analysis::tail_mean(times, 20);
    int last_bad = -1;
    for (std::size_t i = 0; i + 20 < times.size(); ++i) {
      if (times[i] > converged * 1.05) last_bad = static_cast<int>(i);
    }
    rep.addf("%-6zu %10.3f %14.3f %15.1f%% %14d\n", j, mix[j].period_s,
             converged, 100.0 * (converged / mix[j].period_s - 1.0),
             last_bad + 1);
  }

  rep.addf("\nresidual comm overlap in steady state: %.4f s/s\n",
           run.trailing_overlap_seconds(30.0) / 30.0);
  if (schedule.excess == 0) {
    rep.addf("verdict: this mix self-interleaves under MLTCP; expect "
             "near-ideal iteration times.\n");
  } else {
    rep.addf("verdict: the mix is overloaded; MLTCP will still reduce "
             "contention but cannot reach the ideal.\n");
  }

  // 3. Does the packet-level transport agree? One consolidated stats table.
  rep.add(packet_validation(mix).text());
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::vector<JobMix>> mixes = parse(argc, argv);

  // One slot per mix, each written by its own campaign task.
  std::vector<char> truncated(mixes.size(), 0);
  std::vector<runner::SimSpec> specs;
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    runner::SimSpec spec;
    spec.name = "mix" + std::to_string(m);
    const std::vector<JobMix>& mix = mixes[m];
    const bool banner = mixes.size() > 1;
    spec.run = [&mix, m, banner, &truncated](const runner::SimSpec&) {
      runner::Report rep;
      if (banner) rep.addf("======== mix %zu ========\n", m);
      bool cut = false;
      rep.add(analyze(mix, cut).text());
      truncated[m] = cut;
      if (banner) rep.addf("\n");
      return rep;
    };
    specs.push_back(std::move(spec));
  }
  runner::run_and_print(specs, runner::options_from_env());
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    if (truncated[m]) {
      std::fprintf(stderr, "mix %zu: flow-level run truncated before every "
                           "job completed its iterations\n",
                   m);
      return 2;
    }
  }
  return 0;
}
