// Ablations of MLTCP's design choices (DESIGN.md §4):
//  (A) iteration-boundary detection: oracle-configured TOTAL_BYTES/COMP_TIME
//      vs Algorithm 1's auto-learning from ACK gaps;
//  (B) Slope/Intercept sensitivity of the linear aggressiveness function;
//  (C) delayed ACKs (num_acks batching) vs per-packet ACKs;
//  (D) slow-start-after-idle on/off (RFC 2861) for the plain-Reno baseline.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/dumbbell_run.hpp"
#include "analysis/metrics.hpp"
#include "bench_common.hpp"

namespace {

using namespace mltcp;

constexpr int kJobs = 3;
constexpr int kIterations = 40;

struct Outcome {
  double tail = 0.0;       // converged iteration time (s)
  int convergence = -1;    // first iteration within 5% of converged level
};

/// One packet-level ablation run: which CC factory, ACK batching, and idle
/// behavior. All six packet runs across sections (A)/(C)/(D) are collected
/// into a single campaign and sharded across threads.
struct PacketSpec {
  tcp::CcFactory cc;
  int ack_every = 1;
  bool slow_start_after_idle = true;
};

Outcome run_packet(const tcp::CcFactory& cc, int ack_every,
                   bool slow_start_after_idle) {
  auto exp = bench::make_experiment();
  const workload::ModelProfile gpt2 = workload::gpt2_profile();

  std::vector<workload::Job*> jobs;
  for (int i = 0; i < kJobs; ++i) {
    workload::JobSpec spec;
    spec.name = "j" + std::to_string(i);
    const std::int64_t total = workload::comm_bytes(gpt2, 1e9);
    for (int f = 0; f < 4; ++f) {
      spec.flows.push_back(workload::FlowSpec{exp->dumbbell.left[i],
                                              exp->dumbbell.right[i],
                                              total / 4});
    }
    spec.compute_time = workload::compute_time(gpt2);
    spec.max_iterations = kIterations;
    spec.cc = cc;
    spec.receiver.ack_every = ack_every;
    spec.sender.slow_start_after_idle = slow_start_after_idle;
    jobs.push_back(exp->cluster->add_job(spec));
  }
  exp->cluster->start_all();
  exp->sim.run_until(sim::seconds(150));

  Outcome out;
  std::vector<double> tails;
  int conv = 0;
  for (workload::Job* job : jobs) {
    const auto times = job->iteration_times_seconds();
    const double tail = analysis::tail_mean(times, 8);
    tails.push_back(tail);
    int last_bad = -1;
    for (std::size_t i = 0; i + 8 < times.size(); ++i) {
      if (times[i] > tail * 1.05) last_bad = static_cast<int>(i);
    }
    conv = std::max(conv, last_bad + 1);
  }
  out.tail = analysis::mean(tails);
  out.convergence = conv;
  return out;
}

/// Iterations until every flowsim job stays within 2% of the 1.8 s ideal.
int flowsim_convergence(double slope, double intercept) {
  std::vector<analysis::PeriodicJob> jobs;
  for (int j = 0; j < 4; ++j) {
    // Tiny stagger: the deterministic flow-level model needs a symmetry
    // breaker (the packet simulator gets one for free from loss noise).
    jobs.push_back({0.36, 1.44, 0.02 * j, 0.0});
  }
  const auto run = analysis::run_dumbbell(
      jobs, std::make_shared<core::LinearAggressiveness>(slope, intercept), 1,
      150, 1e4);
  bench::exit_if_truncated(run, "Slope/Intercept grid");
  int conv = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto times = run.iteration_times(j);
    int last_bad = -1;
    for (std::size_t i = 0; i < times.size(); ++i) {
      if (times[i] > 1.8 * 1.02) last_bad = static_cast<int>(i);
    }
    conv = std::max(conv, last_bad + 1);
  }
  return conv;
}

}  // namespace

int main() {
  std::printf("MLTCP design-choice ablations.\n");
  const workload::ModelProfile gpt2 = workload::gpt2_profile();

  // All six packet-level runs (sections A, C, D) are independent worlds:
  // one campaign, sharded across threads, results read back by index.
  const core::MltcpConfig oracle = bench::mltcp_config_for(gpt2, 1e9, 4);
  core::MltcpConfig learned;  // total_bytes = 0, comp_time = 0 -> learn
  learned.tracker.learn_min_gap = sim::milliseconds(20);
  const std::vector<PacketSpec> packet_specs = {
      {core::mltcp_reno_factory(oracle), 1, true},   // (A) oracle
      {core::mltcp_reno_factory(learned), 1, true},  // (A) auto-learn
      {core::mltcp_reno_factory(oracle), 1, true},   // (C) ack_every=1
      {core::mltcp_reno_factory(oracle), 2, true},   // (C) ack_every=2
      {core::reno_factory(), 1, true},               // (D) idle restart on
      {core::reno_factory(), 1, false},              // (D) idle restart off
  };
  const std::vector<Outcome> packet = runner::run_campaign<PacketSpec,
                                                           Outcome>(
      packet_specs,
      [](const PacketSpec& s, std::size_t) {
        return run_packet(s.cc, s.ack_every, s.slow_start_after_idle);
      },
      bench::campaign_options());

  // (B) is a 3x3 grid of flowsim runs: its own campaign.
  struct Grid {
    double slope;
    double intercept;
  };
  std::vector<Grid> grid;
  for (const double slope : {0.875, 1.75, 3.5}) {
    for (const double intercept : {0.125, 0.25, 0.5}) {
      grid.push_back(Grid{slope, intercept});
    }
  }
  const std::vector<int> grid_conv = runner::run_campaign<Grid, int>(
      grid,
      [](const Grid& g, std::size_t) {
        return flowsim_convergence(g.slope, g.intercept);
      },
      bench::campaign_options());

  bench::print_header("(A) oracle parameters vs Algorithm 1 auto-learning");
  std::printf("oracle:     converged %.3fs by iteration %d\n",
              packet[0].tail, packet[0].convergence);
  std::printf("auto-learn: converged %.3fs by iteration %d "
              "(learning costs a few extra iterations)\n",
              packet[1].tail, packet[1].convergence);

  bench::print_header("(B) Slope/Intercept sensitivity (flowsim dumbbell, "
                      "4 jobs, a=0.2, T=1.8)");
  std::printf("slope,intercept,iters_to_interleave\n");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::printf("%.3f,%.3f,%d\n", grid[i].slope, grid[i].intercept,
                grid_conv[i]);
  }
  std::printf("Expected shape: larger Slope/Intercept ratio converges "
              "faster; the paper's 1.75/0.25 is a robust middle point.\n");

  bench::print_header("(C) per-packet ACKs vs delayed ACKs (ack_every=2)");
  std::printf("ack_every=1: converged %.3fs by iteration %d\n",
              packet[2].tail, packet[2].convergence);
  std::printf("ack_every=2: converged %.3fs by iteration %d "
              "(num_acks batching preserves byte accounting)\n",
              packet[3].tail, packet[3].convergence);

  bench::print_header("(D) RFC 2861 slow-start-after-idle (plain Reno "
                      "baseline)");
  std::printf("enabled (Linux default): converged %.3fs by iteration %d\n",
              packet[4].tail, packet[4].convergence);
  std::printf("disabled: converged %.3fs by iteration %d (persistent cwnd "
              "lets the previous winner keep winning, an accidental partial "
              "interleaver)\n",
              packet[5].tail, packet[5].convergence);
  return 0;
}
