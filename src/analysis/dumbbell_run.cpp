#include "analysis/dumbbell_run.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "analysis/metrics.hpp"
#include "core/mltcp.hpp"
#include "flowsim/flow_simulator.hpp"
#include "net/topology.hpp"
#include "workload/cluster.hpp"
#include "workload/collective.hpp"

namespace mltcp::analysis {

std::vector<double> DumbbellRun::iteration_times(std::size_t job) const {
  std::vector<double> out;
  for (const auto& r : iterations.at(job)) {
    out.push_back(sim::to_seconds(r.iter_end - r.comm_start));
  }
  return out;
}

double DumbbellRun::offset(std::size_t job, std::size_t k,
                           double period) const {
  const sim::SimTime gap =
      iterations.at(job).at(k).comm_start - iterations.at(0).at(k).comm_start;
  const double d = std::fmod(sim::to_seconds(gap), period);
  return d < 0.0 ? d + period : d;
}

double DumbbellRun::trailing_overlap_seconds(double window_s) const {
  sim::SimTime end = std::numeric_limits<sim::SimTime>::max();
  std::vector<std::pair<sim::SimTime, sim::SimTime>> phases;
  for (const auto& records : iterations) {
    end = std::min(end, records.empty() ? 0 : records.back().iter_end);
    for (const auto& r : records) phases.emplace_back(r.comm_start, r.comm_end);
  }
  return interval_overlap_seconds(phases, end - sim::from_seconds(window_s),
                                  end);
}

DumbbellRun run_dumbbell(const std::vector<PeriodicJob>& jobs,
                         std::shared_ptr<const core::AggressivenessFunction> f,
                         std::uint64_t seed, int iterations,
                         double max_seconds) {
  sim::Simulator sim;
  net::DumbbellConfig dc;
  dc.hosts_per_side = static_cast<int>(jobs.size());
  net::Dumbbell d = net::make_dumbbell(sim, dc);
  flowsim::FlowSimulator fs(sim, *d.topology);
  workload::Cluster cluster(sim, seed);
  cluster.set_backend(&fs);

  const tcp::CcFactory cc = core::mltcp_reno_factory({}, std::move(f));
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    workload::JobSpec spec;
    spec.name = "job" + std::to_string(j);
    spec.flows = workload::single_flow(
        d.left[j], d.right[j],
        static_cast<std::int64_t>(jobs[j].comm_s * dc.bottleneck_rate_bps /
                                  8.0));
    spec.compute_time = sim::from_seconds(jobs[j].compute_s);
    spec.noise_stddev_seconds = jobs[j].noise_s;
    spec.start_time = sim::from_seconds(jobs[j].start_s);
    spec.cc = cc;
    cluster.add_job(spec);
  }
  cluster.start_all();

  // Every job keeps running until the slowest reaches the target, so no
  // job's last iterations see a link emptied by an early finisher.
  const auto done = [&] {
    return std::all_of(cluster.jobs().begin(), cluster.jobs().end(),
                       [&](const auto& job) {
                         return job->completed_iterations() >= iterations;
                       });
  };
  const sim::SimTime budget = sim::from_seconds(max_seconds);
  while (!done() && sim.now() < budget) {
    sim.run_until(std::min(budget, sim.now() + sim::seconds(1)));
  }

  DumbbellRun out;
  out.truncated = !done();
  for (const auto& job : cluster.jobs()) {
    out.iterations.push_back(job->iterations());
  }
  return out;
}

}  // namespace mltcp::analysis
