#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/aggressiveness.hpp"
#include "workload/job.hpp"

namespace mltcp::analysis {

/// One periodic training job of a run_dumbbell() experiment.
struct PeriodicJob {
  /// Communication-phase length in seconds when the job has the bottleneck
  /// to itself.
  double comm_s = 0.0;
  /// Compute-phase length in seconds.
  double compute_s = 0.0;
  /// When the job's first communication phase starts.
  double start_s = 0.0;
  /// Std-dev of zero-mean Gaussian noise added to each compute phase.
  double noise_s = 0.0;
};

/// What run_dumbbell() observed.
struct DumbbellRun {
  /// Completed iterations of each job, in the order the jobs were given.
  std::vector<std::vector<workload::IterationRecord>> iterations;
  /// True when the time budget ran out before every job reached the
  /// iteration target. Callers averaging per-iteration statistics must
  /// check: a truncated run under-counts exactly the slow iterations.
  bool truncated = false;

  /// Iteration durations in seconds (comm start to next comm start).
  std::vector<double> iteration_times(std::size_t job) const;

  /// Start of `job`'s k-th communication phase relative to job 0's, wrapped
  /// onto the offset circle [0, period).
  double offset(std::size_t job, std::size_t k, double period) const;

  /// interval_overlap_seconds() of every job's communication phases over
  /// the last `window_s` seconds the records cover. The window ends at the
  /// earliest job's last iteration end, so no phase inside it is missing.
  double trailing_overlap_seconds(double window_s) const;
};

/// Runs periodic jobs on the flow-level backend: one host pair per job on
/// a net::make_dumbbell() fabric, one MLTCP-Reno channel per job sharing
/// the 1 Gbps bottleneck in proportion to `f`(bytes_ratio) (null = the
/// paper's linear 1.75r + 0.25; a constant F reproduces fair TCP sharing).
/// This is the fluid model behind the §4 convergence and noise-bound
/// experiments. Advances until every job has completed `iterations` or the
/// simulated clock reaches `max_seconds`; `seed` drives the compute noise.
DumbbellRun run_dumbbell(const std::vector<PeriodicJob>& jobs,
                         std::shared_ptr<const core::AggressivenessFunction> f,
                         std::uint64_t seed, int iterations,
                         double max_seconds);

}  // namespace mltcp::analysis
