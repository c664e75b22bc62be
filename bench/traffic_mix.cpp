// Traffic mix: training jobs sharing the dumbbell with production traffic.
// Two GPT-2 jobs train on host pairs 0-1 while one background workload —
// each of the five matrix patterns (poisson / incast / tornado / all_to_all
// / permutation), a hadoop-style shuffle, or a request-response serving job
// — loads the remaining pairs. Every workload runs twice, once with the
// training jobs on plain Reno and once MLTCP-augmented, plus a no-background
// reference per transport, as one campaign (sharded across MLTCP_THREADS;
// CSVs are keyed by run index, so output is byte-identical at every thread
// count — CI diffs a 1-thread against a 4-thread run).
//
// Reported per variant:
//   - training iteration slowdown vs the no-background reference, and
//   - the background flows' FCT tail (p50/p90/p99/p999), open flows
//     counted separately (results/traffic_mix.csv), with downsampled
//     per-variant CDFs in results/traffic_mix_cdf.csv.
//
// Self-checks (non-zero exit on violation):
//   - FCT accounting reconciles: posted == completed + open, and every
//     completed FCT is positive.
//   - MLTCP keeps training competitive: under every background workload the
//     MLTCP jobs' converged iteration time stays within 10% of the Reno
//     jobs' under the same workload (the bench-smoke gate; the simulation
//     is deterministic, so the gate is exact, not statistical). The
//     per-transport slowdown columns are relative to each transport's own
//     no-background reference — MLTCP's reference is the interleaved
//     schedule, so background perturbation shows up as a larger *relative*
//     slowdown even while its absolute times match or beat Reno's; gate on
//     absolute times, report both.
//
//   traffic_mix           full windows
//   traffic_mix --quick   CI smoke point (short windows, same variants)
// Any other argument exits 2.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/metrics.hpp"
#include "bench_common.hpp"
#include "tcp/reno.hpp"
#include "traffic/jobs.hpp"
#include "traffic/pattern.hpp"
#include "traffic/source.hpp"

namespace {

using namespace mltcp;

enum class Background {
  kNone,
  kPoisson,
  kIncast,
  kTornado,
  kAllToAll,
  kPermutation,
  kShuffle,
  kServing,
};

const char* background_name(Background b) {
  switch (b) {
    case Background::kNone: return "none";
    case Background::kPoisson: return "poisson";
    case Background::kIncast: return "incast";
    case Background::kTornado: return "tornado";
    case Background::kAllToAll: return "all_to_all";
    case Background::kPermutation: return "permutation";
    case Background::kShuffle: return "shuffle";
    case Background::kServing: return "serving";
  }
  return "?";
}

struct Spec {
  Background background = Background::kNone;
  bool mltcp = false;  ///< Training transport; background is always Reno.
  bool quick = false;
};

struct Result {
  double train_tail_s = 0.0;  ///< Converged iteration time, mean of 2 jobs.
  analysis::FctStats fct;
  std::size_t posted = 0;
  bool reconciled = true;
};

tcp::CcFactory reno() {
  return [] { return std::make_unique<tcp::RenoCC>(); };
}

traffic::TrafficConfig pattern_config(Background b, bool quick) {
  traffic::TrafficConfig cfg;
  cfg.start = sim::seconds(quick ? 3 : 5);
  cfg.stop = sim::seconds(quick ? 12 : 40);
  cfg.seed = 1;  // One fixed stream per variant; runs are deterministic.
  switch (b) {
    case Background::kPoisson:
    case Background::kPermutation:
      cfg.pattern = b == Background::kPoisson ? traffic::Pattern::kPoisson
                                              : traffic::Pattern::kPermutation;
      cfg.size_dist = traffic::SizeDist::kPareto;
      cfg.mean_bytes = 40'000;
      cfg.flows_per_second = 400.0;
      break;
    case Background::kIncast:
      cfg.pattern = traffic::Pattern::kIncast;
      cfg.mean_bytes = 20'000;
      cfg.epoch = sim::milliseconds(50);
      cfg.incast_fanin = 8;
      break;
    case Background::kTornado:
      cfg.pattern = traffic::Pattern::kTornado;
      cfg.mean_bytes = 30'000;
      cfg.epoch = sim::milliseconds(100);
      break;
    case Background::kAllToAll:
      cfg.pattern = traffic::Pattern::kAllToAll;
      cfg.mean_bytes = 10'000;
      cfg.epoch = sim::milliseconds(250);
      break;
    default:
      break;
  }
  return cfg;
}

Result run(const Spec& spec, std::size_t run_index, runner::CsvSink& csv,
           runner::CsvSink& cdf_csv) {
  auto exp = bench::make_experiment();
  const workload::ModelProfile gpt2 = workload::gpt2_profile();
  const sim::SimTime horizon = sim::seconds(spec.quick ? 30 : 90);

  // Two training jobs on pairs 0-1; the background loads pairs 2-7 (the
  // matrix patterns additionally touch every host, training pairs
  // included — production traffic does not route around the GPUs).
  std::vector<workload::Job*> jobs;
  for (int i = 0; i < 2; ++i) {
    bench::ProfileJobOptions opts;
    opts.max_iterations = spec.quick ? 12 : 36;
    tcp::CcFactory cc;
    if (spec.mltcp) {
      cc = core::mltcp_reno_factory(bench::mltcp_config_for(
          gpt2, exp->scenario.bottleneck_rate_bps, opts.num_flows));
    } else {
      cc = reno();
    }
    jobs.push_back(bench::add_profile_job(*exp, gpt2, i, cc, opts));
  }

  const auto& topo_hosts = exp->dumbbell.topology->hosts();
  std::vector<net::Host*> hosts(topo_hosts.begin(), topo_hosts.end());

  // At most one of these is live per run; all background flows are plain
  // Reno — the legacy traffic MLTCP must coexist with, per the paper.
  std::unique_ptr<traffic::TrafficSource> source;
  std::unique_ptr<traffic::ShuffleJob> shuffle;
  std::unique_ptr<traffic::ServingJob> serving;

  switch (spec.background) {
    case Background::kNone:
      break;
    case Background::kShuffle: {
      traffic::ShuffleConfig cfg;
      cfg.mappers = {exp->dumbbell.left[4], exp->dumbbell.left[5],
                     exp->dumbbell.left[6], exp->dumbbell.left[7]};
      cfg.reducers = {exp->dumbbell.right[4], exp->dumbbell.right[5],
                      exp->dumbbell.right[6], exp->dumbbell.right[7]};
      cfg.bytes_per_pair = 300'000;
      cfg.reduce_time = sim::milliseconds(50);
      cfg.waves = spec.quick ? 40 : 200;
      cfg.start_time = sim::seconds(spec.quick ? 3 : 5);
      cfg.cc = reno();
      shuffle = std::make_unique<traffic::ShuffleJob>(exp->sim, *exp->cluster,
                                                      std::move(cfg));
      shuffle->start();
      break;
    }
    case Background::kServing: {
      traffic::ServingConfig cfg;
      cfg.frontend = exp->dumbbell.left[2];
      cfg.backends = {exp->dumbbell.right[2], exp->dumbbell.right[3],
                      exp->dumbbell.right[4], exp->dumbbell.right[5]};
      cfg.requests_per_second = 150.0;
      cfg.fanout = 2;
      cfg.request_bytes = 2'000;
      cfg.response_bytes = 80'000;
      cfg.start_time = sim::seconds(spec.quick ? 3 : 5);
      cfg.stop_time = sim::seconds(spec.quick ? 12 : 40);
      cfg.cc = reno();
      serving = std::make_unique<traffic::ServingJob>(exp->sim, *exp->cluster,
                                                      std::move(cfg));
      serving->start();
      break;
    }
    default: {
      source = std::make_unique<traffic::TrafficSource>(
          exp->sim, *exp->cluster, hosts,
          traffic::SourceOptions{reno(), {}, {}});
      source->install(pattern_config(spec.background, spec.quick));
      break;
    }
  }

  exp->cluster->start_all();
  exp->sim.run_until(horizon);
  if (shuffle) shuffle->stop();
  if (serving) serving->stop();

  Result res;
  res.train_tail_s =
      0.5 * (analysis::tail_mean(jobs[0]->iteration_times_seconds(), 5) +
             analysis::tail_mean(jobs[1]->iteration_times_seconds(), 5));

  std::vector<double> fcts;
  std::size_t open = 0;
  if (source) {
    fcts = source->completed_fcts_seconds();
    open = source->open();
    res.posted = source->posted();
    res.reconciled = source->posted() == source->completed() + open &&
                     source->bytes_completed() <= source->bytes_posted();
  } else if (shuffle) {
    fcts = shuffle->completed_fcts_seconds();
    open = shuffle->open_transfers();
    res.posted = shuffle->transfers().size();
    res.reconciled = res.posted == fcts.size() + open;
  } else if (serving) {
    fcts = serving->completed_latencies_seconds();
    open = serving->open_requests();
    res.posted = serving->requests_issued();
    res.reconciled = res.posted == fcts.size() + open;
  }
  for (double f : fcts) {
    if (!(f > 0.0)) res.reconciled = false;
  }
  res.fct = analysis::fct_stats(fcts, open);

  csv.append(run_index,
             std::vector<double>{
                 static_cast<double>(run_index),
                 static_cast<double>(spec.mltcp), res.train_tail_s,
                 static_cast<double>(res.fct.completed),
                 static_cast<double>(res.fct.open), res.fct.mean_s,
                 res.fct.p50_s, res.fct.p90_s, res.fct.p99_s, res.fct.p999_s,
                 res.fct.max_s});

  // Downsampled CDF (≤ 128 points): enough to plot the tail, small enough
  // to diff between thread counts.
  const auto cdf = analysis::make_cdf(std::move(fcts));
  const std::size_t step = std::max<std::size_t>(1, cdf.size() / 128);
  for (std::size_t i = 0; i < cdf.size(); i += step) {
    const std::size_t j = std::min(i + step - 1, cdf.size() - 1);
    cdf_csv.append(run_index,
                   std::vector<double>{static_cast<double>(run_index),
                                       cdf[j].value,
                                       cdf[j].cumulative_probability});
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_flag(argc, argv);

  const std::vector<Background> backgrounds = {
      Background::kNone,     Background::kPoisson,  Background::kIncast,
      Background::kTornado,  Background::kAllToAll, Background::kPermutation,
      Background::kShuffle,  Background::kServing};

  // Layout: specs[2 * kind + (mltcp ? 1 : 0)].
  std::vector<Spec> specs;
  for (Background b : backgrounds) {
    specs.push_back(Spec{b, false, quick});
    specs.push_back(Spec{b, true, quick});
  }

  runner::CsvSink csv({"run", "mltcp", "train_tail_s", "fct_n", "fct_open",
                       "fct_mean_s", "fct_p50_s", "fct_p90_s", "fct_p99_s",
                       "fct_p999_s", "fct_max_s"});
  runner::CsvSink cdf_csv({"run", "fct_s", "cum_prob"});

  const std::vector<Result> results = runner::run_campaign<Spec, Result>(
      specs,
      [&](const Spec& s, std::size_t i) { return run(s, i, csv, cdf_csv); },
      bench::campaign_options());

  bench::write_sink(csv, "traffic_mix");
  bench::write_sink(cdf_csv, "traffic_mix_cdf");

  bench::print_header(quick ? "traffic mix (quick)" : "traffic mix");
  std::printf("background,cc,train_tail_s,slowdown,fct_n,fct_open,"
              "fct_p50_ms,fct_p90_ms,fct_p99_ms,fct_p999_ms\n");

  bool ok = true;
  const double base_reno = results[0].train_tail_s;
  const double base_mltcp = results[1].train_tail_s;
  for (std::size_t k = 0; k < backgrounds.size(); ++k) {
    double slowdown[2] = {0.0, 0.0};
    for (int m = 0; m < 2; ++m) {
      const Result& r = results[2 * k + static_cast<std::size_t>(m)];
      const double base = m == 0 ? base_reno : base_mltcp;
      slowdown[m] = r.train_tail_s / base;
      std::printf("%s,%s,%.3f,%.3fx,%zu,%zu,%.2f,%.2f,%.2f,%.2f\n",
                  background_name(backgrounds[k]), m == 0 ? "reno" : "mltcp",
                  r.train_tail_s, slowdown[m], r.fct.completed, r.fct.open,
                  1e3 * r.fct.p50_s, 1e3 * r.fct.p90_s, 1e3 * r.fct.p99_s,
                  1e3 * r.fct.p999_s);
      if (!r.reconciled) {
        std::printf("FCT accounting failed to reconcile for %s/%s\n",
                    background_name(backgrounds[k]),
                    m == 0 ? "reno" : "mltcp");
        ok = false;
      }
    }
    // The gate: under every background workload, MLTCP training must stay
    // within 10% of plain Reno training under the same workload.
    const double reno_tail = results[2 * k].train_tail_s;
    const double mltcp_tail = results[2 * k + 1].train_tail_s;
    if (mltcp_tail > reno_tail * 1.10) {
      std::printf("GATE: mltcp tail %.3fs exceeds reno %.3fs by more than "
                  "10%% under %s\n", mltcp_tail, reno_tail,
                  background_name(backgrounds[k]));
      ok = false;
    }
  }
  std::printf("Expected shape: MLTCP training stays within 10%% of Reno "
              "training under every background workload, and FCT accounting "
              "reconciles exactly.\n");
  std::printf("traffic_mix: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
