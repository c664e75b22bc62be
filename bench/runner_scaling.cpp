// Micro-benchmark for the campaign runner: shards a batch of 32 independent
// packet-level simulations across 1 / 2 / 4 threads, verifies that the
// aggregated CSV output is byte-identical at every thread count (results are
// keyed by spec index, never by completion order), and reports the
// wall-clock speedup over the serial run, one
// `RESULT name=runner_scaling threads=N wall_s=... speedup=...` line per
// thread count (recorded by bench/record_baseline.py).
//
//   ./build/bench/runner_scaling            # 32 runs, threads {1,2,4}
//   MLTCP_RUNS=64 ./build/bench/runner_scaling
//
// It exits 1 when a parallel CSV differs from the serial one, and 2 when
// MLTCP_RUNS is not an integer >= 1.
//
// On a single-core machine the speedup degenerates to ~1x (the pool's
// threads share the core); the byte-identity check is meaningful regardless.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "analysis/metrics.hpp"
#include "bench_common.hpp"

namespace {

using namespace mltcp;

/// One small but non-trivial run: two GPT-2 jobs contending on a dumbbell
/// for 8 iterations, with a per-spec noise level so every run's event
/// trajectory is unique. ~100 ms of wall clock each.
struct ScalingSpec {
  double noise_stddev_seconds = 0.0;
};

struct ScalingResult {
  double tail_mean_s = 0.0;
  double mean_s = 0.0;
};

ScalingResult run_one(const ScalingSpec& spec) {
  bench::ScenarioConfig scenario;
  scenario.hosts_per_side = 2;
  auto exp = bench::make_experiment(scenario);
  const workload::ModelProfile gpt2 = workload::gpt2_profile();
  const core::MltcpConfig cfg =
      bench::mltcp_config_for(gpt2, scenario.bottleneck_rate_bps);
  std::vector<workload::Job*> jobs;
  for (int i = 0; i < 2; ++i) {
    bench::ProfileJobOptions opts;
    opts.max_iterations = 8;
    opts.noise_stddev_seconds = spec.noise_stddev_seconds;
    jobs.push_back(bench::add_profile_job(*exp, gpt2, i,
                                          core::mltcp_reno_factory(cfg),
                                          opts));
  }
  exp->cluster->start_all();
  exp->sim.run_until(sim::seconds(25));

  ScalingResult res;
  std::vector<double> tails;
  std::vector<double> means;
  for (workload::Job* job : jobs) {
    tails.push_back(analysis::tail_mean(job->iteration_times_seconds(), 3));
    means.push_back(analysis::mean(job->iteration_times_seconds()));
  }
  res.tail_mean_s = analysis::mean(tails);
  res.mean_s = analysis::mean(means);
  return res;
}

/// Executes the whole campaign at `threads` and returns the serialized CSV
/// plus the wall-clock seconds it took.
struct CampaignOutcome {
  std::string csv;
  double wall_seconds = 0.0;
};

CampaignOutcome run_campaign_at(const std::vector<ScalingSpec>& specs,
                                int threads) {
  runner::CsvSink sink({"run", "noise_s", "mean_iter_s", "tail_iter_s"});
  runner::CampaignOptions opts;
  opts.threads = threads;
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<ScalingResult> results =
      runner::run_campaign<ScalingSpec, ScalingResult>(
          specs,
          [&sink](const ScalingSpec& s, std::size_t i) {
            const ScalingResult r = run_one(s);
            sink.append(i, std::vector<double>{static_cast<double>(i),
                                               s.noise_stddev_seconds,
                                               r.mean_s, r.tail_mean_s});
            return r;
          },
          opts);
  const auto t1 = std::chrono::steady_clock::now();
  (void)results;
  CampaignOutcome out;
  out.csv = sink.serialize();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

}  // namespace

int main() {
  const int runs = runner::int_from_env("MLTCP_RUNS", 32, 1);
  std::vector<ScalingSpec> specs;
  for (int i = 0; i < runs; ++i) {
    specs.push_back(ScalingSpec{0.001 + 0.0005 * i});
  }

  std::printf("campaign-runner scaling: %d independent sim runs "
              "(hardware threads: %u)\n",
              runs, std::thread::hardware_concurrency());

  const CampaignOutcome serial = run_campaign_at(specs, 1);
  bool identical = true;
  for (const int threads : {1, 2, 4}) {
    const CampaignOutcome run =
        threads == 1 ? serial : run_campaign_at(specs, threads);
    identical = identical && run.csv == serial.csv;
    std::printf("RESULT name=runner_scaling threads=%d wall_s=%.3f "
                "speedup=%.2f\n",
                threads, run.wall_seconds,
                serial.wall_seconds / run.wall_seconds);
    std::fflush(stdout);
  }

  // Persist the serial CSV (all thread counts produced the same bytes).
  const std::string path = bench::results_dir() + "/runner_scaling.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f != nullptr) {
    std::fwrite(serial.csv.data(), 1, serial.csv.size(), f);
    std::fclose(f);
  }
  if (!identical) {
    std::printf("FAIL: parallel output diverged from serial\n");
    return 1;
  }
  std::printf("output byte-identical to serial at every thread count\n");
  return 0;
}
