// Explore the design space of bandwidth aggressiveness functions with the
// flow-level simulator on a dumbbell: how do Slope/Intercept (or an
// arbitrary custom F) change convergence speed and steady-state
// interleaving for N periodic jobs?
//
//   ./build/examples/aggressiveness_explorer              # default sweep
//   ./build/examples/aggressiveness_explorer 8 0.1 0.02   # jobs a noise
//
// Arguments: [jobs] [comm_fraction] [noise_stddev_seconds].

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "analysis/dumbbell_run.hpp"
#include "analysis/metrics.hpp"
#include "analysis/shift.hpp"
#include "core/aggressiveness.hpp"

using namespace mltcp;

namespace {

constexpr double kPeriod = 1.8;

struct SweepResult {
  int convergence_iteration = -1;  // -1: never converged
  double converged_time = 0.0;
  double tail_excess_per_second = 0.0;
};

/// Exits 2 when the run hits its time budget before every job finishes.
SweepResult evaluate(std::shared_ptr<const core::AggressivenessFunction> f,
                     int jobs, double comm_fraction, double noise) {
  std::vector<analysis::PeriodicJob> specs;
  for (int j = 0; j < jobs; ++j) {
    specs.push_back({comm_fraction * kPeriod,
                     (1.0 - comm_fraction) * kPeriod,
                     0.015 * j,  // symmetry breaker
                     noise});
  }
  const auto run = analysis::run_dumbbell(specs, std::move(f), 11, 200, 1e4);
  if (run.truncated) {
    std::fprintf(stderr, "run truncated before every job completed its "
                         "iterations\n");
    std::exit(2);
  }

  SweepResult out;
  int conv = 0;
  std::vector<double> tails;
  for (int j = 0; j < jobs; ++j) {
    const auto times = run.iteration_times(j);
    tails.push_back(analysis::tail_mean(times, 20));
    int last_bad = -1;
    for (std::size_t i = 0; i + 20 < times.size(); ++i) {
      if (times[i] > kPeriod * 1.03) last_bad = static_cast<int>(i);
    }
    conv = std::max(conv, last_bad + 1);
  }
  out.converged_time = analysis::mean(tails);
  out.convergence_iteration =
      out.converged_time < kPeriod * 1.05 ? conv : -1;

  const double window = 20.0;
  out.tail_excess_per_second = run.trailing_overlap_seconds(window) / window;
  return out;
}

void report(const char* label, const SweepResult& r) {
  if (r.convergence_iteration >= 0) {
    std::printf("%-28s converged by iter %3d, steady %.3fs, "
                "residual overlap %.3f\n",
                label, r.convergence_iteration, r.converged_time,
                r.tail_excess_per_second);
  } else {
    std::printf("%-28s NEVER converged (steady %.3fs, overlap %.3f)\n",
                label, r.converged_time, r.tail_excess_per_second);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = argc > 1 ? std::atoi(argv[1]) : 5;
  const double a = argc > 2 ? std::atof(argv[2]) : 0.15;
  const double noise = argc > 3 ? std::atof(argv[3]) : 0.0;
  if (jobs < 2 || a <= 0.0 || a * jobs >= 1.0) {
    std::fprintf(stderr,
                 "need >= 2 jobs and jobs * comm_fraction < 1 "
                 "(got %d x %.2f)\n",
                 jobs, a);
    return 2;
  }
  std::printf("flowsim sweep: %d jobs, comm fraction %.2f (utilization %.2f), "
              "noise %.3fs, T = %.1fs\n\n",
              jobs, a, jobs * a, noise, kPeriod);

  std::printf("-- the paper's six candidates (Figure 3) --\n");
  for (int i = 1; i <= 6; ++i) {
    auto f = std::shared_ptr<const core::AggressivenessFunction>(
        core::make_figure3_function(i).release());
    const std::string name = "F" + std::to_string(i) + " " + f->name();
    report(name.c_str(), evaluate(f, jobs, a, noise));
  }

  std::printf("\n-- linear slope/intercept grid --\n");
  for (const double slope : {0.5, 1.0, 1.75, 3.0}) {
    for (const double intercept : {0.1, 0.25, 0.5, 1.0}) {
      auto f =
          std::make_shared<core::LinearAggressiveness>(slope, intercept);
      char label[64];
      std::snprintf(label, sizeof(label), "linear(%.2f, %.2f)", slope,
                    intercept);
      report(label, evaluate(f, jobs, a, noise));
    }
  }

  std::printf("\n-- §4 predicted steady-state error for the default F --\n");
  for (const double sigma : {0.005, 0.01, 0.02}) {
    std::printf("sigma %.3fs -> predicted offset error std %.4fs\n", sigma,
                analysis::predicted_error_stddev(sigma, core::kDefaultSlope,
                                                 core::kDefaultIntercept));
  }
  return 0;
}
