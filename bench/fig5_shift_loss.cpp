// Figure 5: the analytical machinery of §4 for two identical jobs.
//  - Eq. 3 shift function Shift(D) over the offset circle,
//  - Eq. 4 loss function Loss(D) = -Int Shift (Figure 5c: for a = 1/2 the
//    loss is minimal at D = T/2, the fully interleaved configuration),
//  - gradient-descent trajectories from several starting offsets,
//  - cross-validation of the analytical descent against two jobs on a
//    flowsim dumbbell.

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/dumbbell_run.hpp"
#include "analysis/shift.hpp"
#include "bench_common.hpp"

namespace {

using namespace mltcp;

void print_shift_and_loss(const analysis::ShiftParams& p) {
  std::printf("\nD/T,shift_s,loss\n");
  const int n = 40;
  double min_loss = 1e100;
  double argmin = 0.0;
  for (int i = 0; i <= n; ++i) {
    const double d = p.period * i / n;
    const double s = analysis::shift(d, p);
    const double l = analysis::loss(d, p);
    if (l < min_loss) {
      min_loss = l;
      argmin = d;
    }
    std::printf("%.3f,%.5f,%.5f\n", d / p.period, s, l);
  }
  std::printf("loss minimum at D = %.3f s = %.3f T (expected %.3f T for "
              "a=%.2f)\n",
              argmin, argmin / p.period, 0.5, p.alpha);
}

void print_descent(const analysis::ShiftParams& p) {
  std::printf("\ngradient descent trajectories (D_i in seconds):\n");
  for (const double frac : {0.02, 0.10, 0.30, 0.45, 0.70, 0.95}) {
    const auto res = analysis::descend(frac * p.period, p, 200, 1e-4);
    std::printf("D0=%.3f:", frac * p.period);
    for (std::size_t i = 0; i < res.trajectory.size(); i += 2) {
      std::printf(" %.3f", res.trajectory[i]);
    }
    std::printf("  (converged=%s after %d iters)\n",
                res.converged ? "yes" : "no", res.iterations);
  }
}

void cross_validate_with_flowsim(const analysis::ShiftParams& p) {
  std::printf("\nanalytic descent vs flowsim (offset after k iterations, "
              "D0 = 0.1 T):\n");
  const double d0 = 0.1 * p.period;

  const auto analytic = analysis::descend(d0, p, 40, 1e-9);

  const double comm = p.alpha * p.period;
  std::vector<analysis::PeriodicJob> jobs(
      2, analysis::PeriodicJob{comm, p.period - comm, 0.0, 0.0});
  jobs[1].start_s = d0;
  const auto flow = analysis::run_dumbbell(
      jobs,
      std::make_shared<core::LinearAggressiveness>(p.slope, p.intercept), 1,
      30, 1e4);
  bench::exit_if_truncated(flow, "Fig 5 cross-validation");

  std::printf("iter,analytic_D,flowsim_D\n");
  for (std::size_t k = 0; k < 30; k += 3) {
    const double analytic_d = k < analytic.trajectory.size()
                                  ? analytic.trajectory[k]
                                  : analytic.trajectory.back();
    std::printf("%zu,%.4f,%.4f\n", k, analytic_d, flow.offset(1, k, p.period));
  }
}

}  // namespace

int main() {
  std::printf("Reproduces Figure 5 of MLTCP (HotNets'24): shift (Eq. 3), "
              "loss (Eq. 4)\nand the gradient-descent view of convergence. "
              "Two identical jobs, a=1/2, T=1.8s,\nSlope=1.75, "
              "Intercept=0.25.\n");

  analysis::ShiftParams p;
  p.alpha = 0.5;
  p.period = 1.8;

  print_shift_and_loss(p);
  print_descent(p);
  cross_validate_with_flowsim(p);

  std::printf("\nEq. 3 sanity: Shift(0)=%.4f, Shift(aT)=%.4f (both must be "
              "0); peak near the middle.\n",
              analysis::shift_eq3(0.0, p),
              analysis::shift_eq3(p.alpha * p.period, p));
  return 0;
}
