// Cross-model validation and transport-level visibility:
//  (V1) cwnd/gain time series of one MLTCP flow — Eq. 1 at work: the gain
//       ramps from Intercept to Slope+Intercept within each iteration and
//       resets at the boundary (CSV: results/v1_cwnd_gain.csv).
//  (V2) packet-level vs flowsim convergence trajectories for the same 3-job
//       scenario — the flow-level model is only trustworthy for sweeps if
//       it tracks the packet simulator.
//  (V3) multi-job analytic gradient descent (multi_job_step) vs flowsim for
//       4 jobs — §4's gradient-descent claim beyond two jobs.

#include <cmath>
#include <cstdio>
#include <vector>

#include "analysis/flow_monitor.hpp"
#include "analysis/dumbbell_run.hpp"
#include "analysis/metrics.hpp"
#include "analysis/shift.hpp"
#include "bench_common.hpp"

namespace {

using namespace mltcp;

void v1_cwnd_gain_traces() {
  bench::print_header("V1: cwnd and gain of one MLTCP flow (2-job run)");
  auto exp = bench::make_experiment();
  const workload::ModelProfile gpt2 = workload::gpt2_profile();
  const core::MltcpConfig cfg = bench::mltcp_config_for(gpt2, 1e9, 1);

  std::vector<workload::Job*> jobs;
  for (int i = 0; i < 2; ++i) {
    bench::ProfileJobOptions opts;
    opts.max_iterations = 10;
    opts.num_flows = 1;
    jobs.push_back(bench::add_profile_job(*exp, gpt2, i,
                                          core::mltcp_reno_factory(cfg),
                                          opts));
  }
  analysis::FlowMonitor monitor(exp->sim,
                                exp->cluster->flows_of(0)[0]->sender(),
                                sim::milliseconds(20));
  exp->cluster->start_all();
  exp->sim.run_until(sim::seconds(20));

  auto csv = bench::open_csv("v1_cwnd_gain",
                             {"t_s", "cwnd", "gain", "srtt_us", "inflight"});
  std::printf("t_s,cwnd,gain (every 10th sample)\n");
  const auto& samples = monitor.samples();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    csv->row(std::vector<double>{sim::to_seconds(s.when), s.cwnd, s.gain,
                                 sim::to_microseconds(s.srtt),
                                 static_cast<double>(s.inflight)});
    if (i % 10 == 0 && sim::to_seconds(s.when) < 6.0) {
      std::printf("%.2f,%.1f,%.2f\n", sim::to_seconds(s.when), s.cwnd,
                  s.gain);
    }
  }
  double max_gain = 0.0;
  double min_gain = 10.0;
  for (const auto& s : samples) {
    if (s.inflight > 0) {
      max_gain = std::max(max_gain, s.gain);
      min_gain = std::min(min_gain, s.gain);
    }
  }
  std::printf("gain range while sending: [%.2f, %.2f] "
              "(expected [0.25, 2.00])\n",
              min_gain, max_gain);
}

void v2_fluid_vs_packet() {
  bench::print_header(
      "V2: packet-level vs flowsim convergence (3 GPT-2 jobs)");
  const workload::ModelProfile gpt2 = workload::gpt2_profile();
  constexpr int kIters = 35;

  // Packet level.
  auto exp = bench::make_experiment();
  const core::MltcpConfig cfg = bench::mltcp_config_for(gpt2, 1e9, 4);
  std::vector<workload::Job*> jobs;
  for (int i = 0; i < 3; ++i) {
    bench::ProfileJobOptions opts;
    opts.max_iterations = kIters;
    jobs.push_back(bench::add_profile_job(*exp, gpt2, i,
                                          core::mltcp_reno_factory(cfg),
                                          opts));
  }
  exp->cluster->start_all();
  exp->sim.run_until(sim::seconds(130));

  // Flow level.
  std::vector<analysis::PeriodicJob> fjobs;
  for (int j = 0; j < 3; ++j) {
    fjobs.push_back({sim::to_seconds(workload::comm_time(gpt2)),
                     sim::to_seconds(workload::compute_time(gpt2)), 0.005 * j,
                     0.0});
  }
  const auto fluid = analysis::run_dumbbell(fjobs, nullptr, 1, kIters, 1e4);
  bench::exit_if_truncated(fluid, "V2");

  auto csv = bench::open_csv("v2_fluid_vs_packet",
                             {"iter", "packet_mean_s", "flowsim_mean_s"});
  std::printf("iter,packet_mean_s,flowsim_mean_s\n");
  for (int k = 0; k < kIters; k += 2) {
    double packet_mean = 0.0;
    double fluid_mean = 0.0;
    for (int j = 0; j < 3; ++j) {
      const auto pt = jobs[j]->iteration_times_seconds();
      const auto ft = fluid.iteration_times(j);
      packet_mean += k < static_cast<int>(pt.size()) ? pt[k] / 3.0 : 0.0;
      fluid_mean += k < static_cast<int>(ft.size()) ? ft[k] / 3.0 : 0.0;
    }
    csv->row(std::vector<double>{static_cast<double>(k), packet_mean,
                                 fluid_mean});
    std::printf("%d,%.3f,%.3f\n", k, packet_mean, fluid_mean);
  }
  std::printf("Expected shape: both trajectories decay from ~2.4-2.7s to the "
              "1.8s ideal; the packet path converges somewhat slower (loss "
              "noise, slow start).\n");
}

void v3_multi_job_descent() {
  bench::print_header("V3: analytic multi-job descent vs flowsim (4 jobs, "
                      "a=0.2)");
  analysis::ShiftParams p;
  p.alpha = 0.2;
  p.period = 1.8;

  const std::vector<double> starts = {0.0, 0.05, 0.10, 0.15};
  const auto descent = analysis::multi_descend(starts, p, 300, 1e-4);

  std::vector<analysis::PeriodicJob> jobs;
  for (const double start : starts) {
    jobs.push_back({p.alpha * p.period, (1 - p.alpha) * p.period, start, 0.0});
  }
  const auto fluid = analysis::run_dumbbell(jobs, nullptr, 1, 60, 1e4);
  bench::exit_if_truncated(fluid, "V3");

  std::printf("analytic: converged=%s after %d iterations, final loss "
              "%.5f\n",
              descent.converged ? "yes" : "no", descent.iterations,
              analysis::multi_job_loss(descent.trajectory.back(), p));

  // Compare pairwise offsets (relative to job 0) at convergence.
  const auto& final_offsets = descent.trajectory.back();
  std::printf("job,analytic_rel_offset_s,flowsim_rel_offset_s\n");
  for (std::size_t j = 1; j < 4; ++j) {
    double analytic = std::fmod(final_offsets[j] - final_offsets[0],
                                p.period);
    if (analytic < 0) analytic += p.period;
    const std::size_t k = std::min(fluid.iterations[0].size(),
                                   fluid.iterations[j].size()) - 1;
    std::printf("%zu,%.3f,%.3f\n", j, analytic,
                fluid.offset(j, k, p.period));
  }
  std::printf("Expected shape: both settle into pairwise separations of at "
              "least a*T = %.2fs (order may differ; any interleaved "
              "permutation is a global optimum).\n",
              p.alpha * p.period);
}

}  // namespace

int main() {
  std::printf("Model cross-validation for the MLTCP reproduction.\n");
  v1_cwnd_gain_traces();
  v2_fluid_vs_packet();
  v3_multi_job_descent();
  return 0;
}
