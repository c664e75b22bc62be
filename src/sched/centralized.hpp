#pragma once

#include <string>
#include <vector>

#include "sim/time.hpp"

namespace mltcp::sched {

/// The centralized scheduler's view of one periodic job: it communicates for
/// `comm_time` out of every `period` (at full bottleneck rate), the §4
/// abstraction that Cassini's geometric formulation also uses.
struct PeriodicDemand {
  std::string name;
  sim::SimTime period = 0;
  sim::SimTime comm_time = 0;
};

/// A centralized schedule: one start-time offset per job.
struct Schedule {
  std::vector<sim::SimTime> offsets;
  /// Total "excess" time-bandwidth on the hyperperiod: the integral of
  /// max(0, concurrent_comms - 1). Zero means fully interleaved.
  sim::SimTime excess = 0;
  sim::SimTime hyperperiod = 0;
};

/// Least common multiple of the job periods, saturating at
/// `max_multiple * max(period)` (the optimizer then works on a truncated
/// horizon, which is exact whenever the LCM fits).
sim::SimTime hyperperiod_of(const std::vector<PeriodicDemand>& jobs,
                            int max_multiple = 512);

/// Exact sweep-line evaluation of the excess overlap of `offsets` over one
/// hyperperiod (intervals wrap around the circle).
sim::SimTime evaluate_excess(const std::vector<PeriodicDemand>& jobs,
                             const std::vector<sim::SimTime>& offsets,
                             sim::SimTime hyperperiod);

/// Cassini-like centralized optimizer. The paper's reference point solves an
/// ILP; on the single-bottleneck scenarios evaluated here, randomized
/// coordinate descent over the offset circle with event-aligned candidate
/// offsets finds the same (zero-excess) optima while staying dependency-free.
Schedule optimize_interleaving(const std::vector<PeriodicDemand>& jobs);

/// True when a zero-excess (fully interleaved) schedule exists and was found.
bool is_interleavable(const std::vector<PeriodicDemand>& jobs);

/// One job's timing as achievable on the wire: its nominal period (the
/// profile's ideal iteration time), the wire-level duration of its
/// communication phase (payload inflated by header overhead) and its compute
/// time.
struct JobTiming {
  sim::SimTime nominal_period = 0;
  sim::SimTime wire_comm = 0;
  sim::SimTime compute = 0;
};

/// Period harmonization (Cassini's job-compatibility alignment): a strictly
/// periodic interleaved schedule only exists when the jobs' achieved periods
/// keep their nominal ratios (e.g. exactly 2:3). Every period is scaled by
/// the smallest common factor lambda = max_j (wire_comm_j + compute_j) /
/// nominal_period_j, and the returned per-job compute pad makes job j's
/// natural period equal lambda * nominal_period_j. Pads are a few
/// milliseconds in practice.
std::vector<sim::SimTime> harmonize_compute_pads(
    const std::vector<JobTiming>& jobs);

}  // namespace mltcp::sched
