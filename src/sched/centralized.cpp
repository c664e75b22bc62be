#include "sched/centralized.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>

#include "sim/random.hpp"

namespace mltcp::sched {

namespace {

sim::SimTime gcd64(sim::SimTime a, sim::SimTime b) {
  while (b != 0) {
    const sim::SimTime t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// Search effort of optimize_interleaving: random restarts, coordinate-descent
/// sweeps per restart, uniform grid candidates per job scan, and the seed of
/// the restart offsets.
constexpr int kRestarts = 8;
constexpr int kMaxRounds = 64;
constexpr int kGridCandidates = 64;
constexpr std::uint64_t kSeed = 42;

/// Event-list evaluation shared by evaluate_excess and the optimizer.
struct Event {
  sim::SimTime t;
  int delta;
  bool operator<(const Event& other) const {
    if (t != other.t) return t < other.t;
    return delta < other.delta;  // process -1 before +1 at equal times
  }
};

}  // namespace

sim::SimTime hyperperiod_of(const std::vector<PeriodicDemand>& jobs,
                            int max_multiple) {
  assert(!jobs.empty());
  sim::SimTime h = jobs.front().period;
  sim::SimTime cap = 0;
  for (const auto& j : jobs) cap = std::max(cap, j.period);
  cap *= max_multiple;
  for (const auto& j : jobs) {
    assert(j.period > 0 && j.comm_time >= 0 && j.comm_time <= j.period);
    const sim::SimTime g = gcd64(h, j.period);
    const sim::SimTime lcm = h / g * j.period;
    h = std::min(lcm, cap);
  }
  return h;
}

sim::SimTime evaluate_excess(const std::vector<PeriodicDemand>& jobs,
                             const std::vector<sim::SimTime>& offsets,
                             sim::SimTime hyperperiod) {
  assert(jobs.size() == offsets.size());
  std::vector<Event> events;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto& job = jobs[j];
    if (job.comm_time <= 0) continue;
    for (sim::SimTime k = 0; k * job.period < hyperperiod; ++k) {
      sim::SimTime s = (offsets[j] + k * job.period) % hyperperiod;
      if (s < 0) s += hyperperiod;
      sim::SimTime e = s + job.comm_time;
      if (e <= hyperperiod) {
        events.push_back({s, +1});
        events.push_back({e, -1});
      } else {  // wraps around the circle
        events.push_back({s, +1});
        events.push_back({hyperperiod, -1});
        events.push_back({0, +1});
        events.push_back({e - hyperperiod, -1});
      }
    }
  }
  std::sort(events.begin(), events.end());

  sim::SimTime excess = 0;
  int active = 0;
  sim::SimTime prev = 0;
  for (const auto& ev : events) {
    if (active > 1) excess += static_cast<sim::SimTime>(active - 1) *
                              (ev.t - prev);
    active += ev.delta;
    prev = ev.t;
  }
  return excess;
}

Schedule optimize_interleaving(const std::vector<PeriodicDemand>& jobs) {
  assert(!jobs.empty());
  const sim::SimTime h = hyperperiod_of(jobs);
  sim::Rng rng(kSeed);

  Schedule best;
  best.hyperperiod = h;
  best.offsets.assign(jobs.size(), 0);
  best.excess = evaluate_excess(jobs, best.offsets, h);

  for (int restart = 0; restart < kRestarts && best.excess > 0;
       ++restart) {
    std::vector<sim::SimTime> offsets(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      offsets[j] = restart == 0
                       ? 0
                       : rng.uniform_int(0, jobs[j].period - 1);
    }
    sim::SimTime cur = evaluate_excess(jobs, offsets, h);

    for (int round = 0; round < kMaxRounds && cur > 0; ++round) {
      bool improved = false;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        // Candidate offsets: right after any other job's communication ends
        // (the tight packings all have this form), plus a uniform grid.
        std::vector<sim::SimTime> candidates;
        for (std::size_t o = 0; o < jobs.size(); ++o) {
          if (o == j) continue;
          for (sim::SimTime k = 0; k * jobs[o].period < h; ++k) {
            const sim::SimTime end =
                (offsets[o] + k * jobs[o].period + jobs[o].comm_time) % h;
            candidates.push_back(end % jobs[j].period);
          }
        }
        for (int g = 0; g < kGridCandidates; ++g) {
          candidates.push_back(jobs[j].period * g / kGridCandidates);
        }

        sim::SimTime best_off = offsets[j];
        sim::SimTime best_val = cur;
        for (const sim::SimTime cand : candidates) {
          const sim::SimTime saved = offsets[j];
          offsets[j] = cand;
          const sim::SimTime val = evaluate_excess(jobs, offsets, h);
          if (val < best_val) {
            best_val = val;
            best_off = cand;
          }
          offsets[j] = saved;
        }
        if (best_val < cur) {
          offsets[j] = best_off;
          cur = best_val;
          improved = true;
        }
      }
      if (!improved) break;
    }

    if (cur < best.excess) {
      best.excess = cur;
      best.offsets = offsets;
    }
  }
  return best;
}

bool is_interleavable(const std::vector<PeriodicDemand>& jobs) {
  return optimize_interleaving(jobs).excess == 0;
}

std::vector<sim::SimTime> harmonize_compute_pads(
    const std::vector<JobTiming>& jobs) {
  double lambda = 1.0;
  for (const auto& j : jobs) {
    assert(j.nominal_period > 0);
    const double natural =
        static_cast<double>(j.wire_comm + j.compute) /
        static_cast<double>(j.nominal_period);
    lambda = std::max(lambda, natural);
  }
  std::vector<sim::SimTime> pads;
  pads.reserve(jobs.size());
  for (const auto& j : jobs) {
    const auto target = static_cast<sim::SimTime>(
        lambda * static_cast<double>(j.nominal_period) + 0.5);
    pads.push_back(target - (j.wire_comm + j.compute));
  }
  return pads;
}

}  // namespace mltcp::sched
