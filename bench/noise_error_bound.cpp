// §4 claim: with zero-mean Gaussian noise of std sigma in each job's
// iteration time, MLTCP's convergence error is normally distributed with
// standard deviation <= 2*sigma*(1 + Intercept/Slope).
//
// We run two jobs on a flowsim dumbbell to steady state for a sweep of sigma
// and compare the measured std of the offset (around T/2, a = 1/2) against
// the closed-form bound, and also validate the bound on the discrete
// gradient-descent recursion directly. Exits 1 when any measurement exceeds
// the bound by more than 15%.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/dumbbell_run.hpp"
#include "analysis/metrics.hpp"
#include "analysis/shift.hpp"
#include "bench_common.hpp"
#include "sim/random.hpp"

namespace {

using namespace mltcp;

/// Measured steady-state offset deviation of two jobs on a flowsim dumbbell.
double flowsim_error_std(double sigma, const analysis::ShiftParams& p,
                         std::uint64_t seed) {
  const double comm = p.alpha * p.period;
  std::vector<analysis::PeriodicJob> jobs(
      2, analysis::PeriodicJob{comm, p.period - comm, 0.0, sigma});
  jobs[1].start_s = 0.25 * p.period;
  const auto run = analysis::run_dumbbell(
      jobs,
      std::make_shared<core::LinearAggressiveness>(p.slope, p.intercept),
      seed, 400, 1e5);
  // A truncated run would bias the steady-state error std towards the
  // transient; fail loudly instead of folding it into the sweep.
  char what[64];
  std::snprintf(what, sizeof(what), "sigma=%.4f seed=%llu", sigma,
                static_cast<unsigned long long>(seed));
  bench::exit_if_truncated(run, what);

  const std::size_t n =
      std::min(run.iterations[0].size(), run.iterations[1].size());
  std::vector<double> errors;
  for (std::size_t i = 100; i < n; ++i) {  // skip convergence transient
    errors.push_back(run.offset(1, i, p.period) - p.period / 2.0);
  }
  return analysis::stddev(errors);
}

/// The same measurement on the §4 recursion itself:
/// D_{i+1} = D_i + Shift(D_i) + (n1 - n0), n ~ N(0, sigma).
double recursion_error_std(double sigma, const analysis::ShiftParams& p,
                           std::uint64_t seed) {
  sim::Rng rng(seed);
  double d = 0.25 * p.period;
  std::vector<double> errors;
  for (int i = 0; i < 4000; ++i) {
    d += analysis::shift(d, p) + rng.normal(0.0, sigma) -
         rng.normal(0.0, sigma);
    d = std::fmod(d, p.period);
    if (d < 0) d += p.period;
    if (i >= 200) errors.push_back(d - p.period / 2.0);
  }
  return analysis::stddev(errors);
}

}  // namespace

int main() {
  std::printf("Validates the §4 approximation-error bound of MLTCP "
              "(HotNets'24):\nerror std <= 2*sigma*(1 + Intercept/Slope) "
              "= %.3f * sigma for Slope=1.75, Intercept=0.25.\n",
              2.0 * (1.0 + 0.25 / 1.75));

  analysis::ShiftParams p;
  p.alpha = 0.5;
  p.period = 1.8;

  // Each sigma is an independent 400-iteration flowsim run plus a 4000-step
  // recursion: shard the sweep across threads, print rows in sweep order.
  struct Row {
    double bound;
    double flowsim;
    double recursion;
  };
  const std::vector<double> sigmas = {0.002, 0.005, 0.01, 0.02, 0.04};
  const std::vector<Row> rows = runner::run_campaign<double, Row>(
      sigmas,
      [&p](const double sigma, std::size_t) {
        return Row{
            analysis::predicted_error_stddev(sigma, p.slope, p.intercept),
            flowsim_error_std(sigma, p, 1234),
            recursion_error_std(sigma, p, 77)};
      },
      mltcp::bench::campaign_options());

  std::printf("\nsigma_s,predicted_bound_s,flowsim_measured_s,"
              "recursion_measured_s\n");
  bool exceeded = false;
  for (std::size_t i = 0; i < sigmas.size(); ++i) {
    const Row& r = rows[i];
    const bool within =
        r.flowsim <= r.bound * 1.15 && r.recursion <= r.bound * 1.15;
    exceeded = exceeded || !within;
    std::printf("%.3f,%.4f,%.4f,%.4f%s\n", sigmas[i], r.bound, r.flowsim,
                r.recursion, within ? "" : "  <-- exceeds bound");
  }

  std::printf("\nExpected shape: measured error grows linearly with sigma "
              "and stays at or below the bound.\n");
  if (exceeded) {
    std::printf("NOISE BOUND FAILED: a measurement exceeds 1.15x the bound\n");
    return 1;
  }
  return 0;
}
