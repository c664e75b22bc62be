// Fault recovery: MLTCP re-converging after mid-training faults. Two GPT-2
// jobs slide into the interleaved schedule as in Figure 6; at t=20s a
// scripted scenario injects a fault and we measure how the schedule
// re-forms. Three variants run as one campaign (scenarios are per-run Spec
// config, so the sweep shards across MLTCP_THREADS and the CSV stays
// byte-identical at any thread count):
//
//   baseline  — empty scenario (the engine schedules nothing at all).
//   flap      — the bottleneck cable is cut for 150 ms (both directions
//               down, routes rebuilt at the cut and the heal, capped-RTO
//               probing brings the flows back after the heal).
//   churn     — the same flap, plus a third GPT-2 job arriving mid-run on a
//               fresh host pair and a 2 MB legacy background burst.
//
// Acceptance: after the fault clears, both original jobs' converged tail
// iteration times must be within 5% of the baseline variant's tails — the
// random walk finds the interleaved schedule again.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/metrics.hpp"
#include "bench_common.hpp"
#include "runner/trace.hpp"
#include "scenario/engine.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace mltcp;

constexpr int kIterations = 40;
constexpr double kFaultAtS = 20.0;   ///< well after initial convergence
constexpr double kFlapS = 0.150;     ///< blackout length (≫ typical RTO)

struct Spec {
  std::string name;
  scenario::Scenario scenario;
};

struct VariantResult {
  int applied = 0;         ///< scenario events replayed
  int arrivals_done = 0;   ///< iterations completed by the mid-run arrival
  double tail0 = 0.0;      ///< converged iteration time, job 0
  double tail1 = 0.0;      ///< converged iteration time, job 1
  int reconverged_by = 0;  ///< first iteration with both within 5% of ideal
};

VariantResult run(const Spec& spec, std::size_t run_index,
                  runner::CsvSink& csv) {
  auto exp = bench::make_experiment();
  const workload::ModelProfile gpt2 = workload::gpt2_profile();
  const double period = sim::to_seconds(gpt2.ideal_iteration_time);

  std::vector<workload::Job*> jobs;
  for (int i = 0; i < 2; ++i) {
    bench::ProfileJobOptions opts;
    opts.max_iterations = kIterations;
    const core::MltcpConfig cfg = bench::mltcp_config_for(
        gpt2, exp->scenario.bottleneck_rate_bps, opts.num_flows);
    jobs.push_back(bench::add_profile_job(
        *exp, gpt2, i, core::mltcp_reno_factory(cfg), opts));
  }

  // The fault category lands in the same Perfetto trace as the job phases,
  // so the flap and the recovery are visible side by side.
  runner::RunTrace trace(
      runner::trace_path(bench::results_dir(), "fault_recovery", run_index),
      telemetry::Category::kJob | telemetry::Category::kTcp |
          telemetry::Category::kFault);
  trace.attach(exp->sim);

  scenario::ScenarioEngine engine(exp->sim, *exp->dumbbell.topology,
                                  *exp->cluster);
  engine.install(spec.scenario);

  exp->cluster->start_all();
  exp->sim.run_until(sim::seconds(100));
  trace.finish();

  VariantResult res;
  res.applied = engine.applied_events();
  if (workload::Job* late = exp->cluster->find_job("late")) {
    res.arrivals_done = late->completed_iterations();
  }

  const auto& r0 = jobs[0]->iterations();
  const auto& r1 = jobs[1]->iterations();
  const std::size_t n = std::min(r0.size(), r1.size());
  int last_bad = -1;
  for (std::size_t i = 0; i < n; ++i) {
    double offset = std::fmod(
        sim::to_seconds(r1[i].comm_start - r0[i].comm_start), period);
    if (offset < 0) offset += period;
    const double it0 = sim::to_seconds(r0[i].iter_end - r0[i].comm_start);
    const double it1 = sim::to_seconds(r1[i].iter_end - r1[i].comm_start);
    csv.append(run_index, std::vector<double>{static_cast<double>(run_index),
                                              static_cast<double>(i), offset,
                                              it0, it1});
    if (it0 > period * 1.05 || it1 > period * 1.05) {
      last_bad = static_cast<int>(i);
    }
  }
  res.reconverged_by = last_bad + 1;
  res.tail0 = analysis::tail_mean(jobs[0]->iteration_times_seconds(), 5);
  res.tail1 = analysis::tail_mean(jobs[1]->iteration_times_seconds(), 5);
  return res;
}

/// The churn variant's arrival: a third GPT-2 job on host pair 2 (the two
/// resident jobs occupy pairs 0 and 1). Built inside the run via the engine
/// context — FlowSpecs hold Host pointers, so construction must resolve
/// against each run's own world, never the spec-building thread's.
void spawn_late_job(scenario::EngineContext& ctx) {
  const workload::ModelProfile gpt2 = workload::gpt2_profile();
  const bench::ScenarioConfig defaults;  // campaign uses the stock dumbbell
  const std::int64_t total =
      workload::comm_bytes(gpt2, defaults.bottleneck_rate_bps);
  constexpr int kFlows = 4;
  const core::MltcpConfig cfg =
      bench::mltcp_config_for(gpt2, defaults.bottleneck_rate_bps, kFlows);

  // hosts() interleaves sides (hL0, hR0, hL1, ...): pair i = (2i, 2i+1).
  const auto& hosts = ctx.topology().hosts();
  workload::JobSpec spec;
  spec.name = "late";
  for (int f = 0; f < kFlows; ++f) {
    spec.flows.push_back(
        workload::FlowSpec{hosts.at(4), hosts.at(5), total / kFlows});
  }
  spec.compute_time = workload::compute_time(gpt2);
  spec.start_time = ctx.simulator().now();
  spec.max_iterations = 8;
  spec.cc = core::mltcp_reno_factory(cfg);
  ctx.cluster().add_job(spec)->start();
}

}  // namespace

int main() {
  std::printf("Fault recovery: MLTCP re-converging after a mid-training "
              "link flap and job churn.\n");

  const double period =
      sim::to_seconds(workload::gpt2_profile().ideal_iteration_time);

  std::vector<Spec> specs;
  specs.push_back({"baseline", scenario::Scenario{}});
  {
    scenario::Scenario flap;
    flap.link_down(sim::from_seconds(kFaultAtS), "swL", "swR")
        .link_up(sim::from_seconds(kFaultAtS + kFlapS), "swL", "swR");
    specs.push_back({"flap", std::move(flap)});
  }
  {
    scenario::Scenario churn;
    churn.link_down(sim::from_seconds(kFaultAtS), "swL", "swR")
        .link_up(sim::from_seconds(kFaultAtS + kFlapS), "swL", "swR")
        .job_arrival(sim::from_seconds(kFaultAtS + 6.0), "late",
                     spawn_late_job)
        .background_burst(sim::from_seconds(kFaultAtS + 10.0), 6, 7,
                          2'000'000);
    specs.push_back({"churn", std::move(churn)});
  }

  runner::CsvSink csv({"variant", "iter", "offset_s", "iter0_s", "iter1_s"});
  const std::vector<VariantResult> results =
      runner::run_campaign<Spec, VariantResult>(
          specs,
          [&csv](const Spec& s, std::size_t i) { return run(s, i, csv); },
          bench::campaign_options());
  bench::write_sink(csv, "fault_recovery");

  bench::print_header("re-convergence after mid-training faults");
  std::printf("variant,events,late_iters,reconverged_by_iter,tail0_s,"
              "tail1_s,vs_baseline_pct\n");
  const double base_tail =
      0.5 * (results[0].tail0 + results[0].tail1);
  bool ok = true;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const VariantResult& r = results[i];
    const double tail = 0.5 * (r.tail0 + r.tail1);
    const double delta_pct = 100.0 * (tail - base_tail) / base_tail;
    std::printf("%s,%d,%d,%d,%.3f,%.3f,%+.2f%%\n", specs[i].name.c_str(),
                r.applied, r.arrivals_done, r.reconverged_by, r.tail0,
                r.tail1, delta_pct);
    if (std::abs(delta_pct) > 5.0) ok = false;
  }
  std::printf("Expected shape: every variant's converged tails sit within "
              "5%% of baseline (ideal %.1fs) — the schedule re-forms after "
              "the flap and absorbs the churn.\n", period);
  std::printf("fault_recovery: %s\n", ok ? "RECONVERGED" : "DIVERGED");
  return ok ? 0 : 1;
}
