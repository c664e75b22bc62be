// Beyond the paper's evaluation — stress tests of MLTCP outside its stated
// assumptions and scale:
//  (E1) pipeline/microbatched jobs: §4 assumes one continuous communication
//       phase per iteration; here each iteration sends 3 chunks separated by
//       compute gaps. Does MLTCP still interleave?
//  (E2) job churn: a new job joins a converged system mid-run; how fast does
//       the system re-converge, and does it disturb the incumbents?
//  (E3) scalability: flowsim sweep of convergence iterations vs number of
//       jobs at fixed 0.8 utilization.
//  (E4) switch-enforced fairness (DRR) baseline: even a perfectly fair
//       switch does not interleave periodic jobs — the gap MLTCP fills.
//  (E5) SACK vs NewReno loss recovery under MLTCP (transport robustness).
//  (E6) multiple bottlenecks: jobs on a 3-rack leaf-spine whose paths share
//       different fabric links; MLTCP must interleave per-link without any
//       global view.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/dumbbell_run.hpp"
#include "analysis/metrics.hpp"
#include "bench_common.hpp"

namespace {

using namespace mltcp;

double ideal_s() {
  return sim::to_seconds(workload::gpt2_profile().ideal_iteration_time);
}

// --------------------------------------------------------------------- E1

void pipeline_jobs() {
  bench::print_header("E1: microbatched communication (3 chunks/iteration)");
  auto run = [](int chunks) {
    auto exp = bench::make_experiment();
    const workload::ModelProfile gpt2 = workload::gpt2_profile();
    const std::int64_t total = workload::comm_bytes(gpt2, 1e9);
    std::vector<workload::Job*> jobs;
    for (int i = 0; i < 3; ++i) {
      workload::JobSpec spec;
      spec.name = "j" + std::to_string(i);
      for (int f = 0; f < 4; ++f) {
        spec.flows.push_back(workload::FlowSpec{
            exp->dumbbell.left[i], exp->dumbbell.right[i], total / 4});
      }
      // Keep the iteration budget constant: the chunk gaps come out of the
      // compute phase.
      spec.comm_chunks = chunks;
      spec.chunk_gap = sim::milliseconds(30);
      spec.compute_time = workload::compute_time(gpt2) -
                          sim::milliseconds(30) * (chunks - 1);
      spec.max_iterations = 50;
      core::MltcpConfig cfg = bench::mltcp_config_for(gpt2, 1e9, 4);
      // COMP_TIME must sit between the chunk gap and the real compute gap.
      cfg.tracker.comp_time = sim::milliseconds(200);
      spec.cc = core::mltcp_reno_factory(cfg);
      jobs.push_back(exp->cluster->add_job(spec));
    }
    exp->cluster->start_all();
    exp->sim.run_until(sim::seconds(170));
    std::vector<double> tails;
    for (workload::Job* job : jobs) {
      tails.push_back(analysis::tail_mean(job->iteration_times_seconds(), 8));
    }
    return analysis::mean(tails);
  };
  const std::vector<int> chunk_counts = {1, 3};
  const std::vector<double> tails = runner::run_campaign<int, double>(
      chunk_counts, [&run](const int c, std::size_t) { return run(c); },
      bench::campaign_options());
  const double single = tails[0];
  const double piped = tails[1];
  std::printf("1 chunk/iteration : converged %.3fs (ideal %.3fs)\n", single,
              ideal_s());
  std::printf("3 chunks/iteration: converged %.3fs -> MLTCP %s outside the "
              "single-phase assumption\n",
              piped, piped < ideal_s() * 1.10 ? "still interleaves" :
                                                "degrades");
}

// --------------------------------------------------------------------- E2

void job_churn() {
  bench::print_header("E2: job churn (4th job joins at t=40s)");
  auto exp = bench::make_experiment();
  const workload::ModelProfile gpt2 = workload::gpt2_profile();
  const core::MltcpConfig cfg = bench::mltcp_config_for(gpt2, 1e9, 4);
  std::vector<workload::Job*> jobs;
  for (int i = 0; i < 4; ++i) {
    bench::ProfileJobOptions opts;
    opts.max_iterations = 60;
    if (i == 3) opts.start_time = sim::seconds(40);
    jobs.push_back(bench::add_profile_job(*exp, gpt2, i,
                                          core::mltcp_reno_factory(cfg),
                                          opts));
  }
  exp->cluster->start_all();
  exp->sim.run_until(sim::seconds(180));

  // Per-iteration mean across incumbents, and the late joiner separately.
  std::printf("iteration,incumbent_mean_s,joiner_s\n");
  const auto j3 = jobs[3]->iteration_times_seconds();
  for (int k = 0; k < 60; k += 3) {
    double incumbents = 0.0;
    int n = 0;
    for (int i = 0; i < 3; ++i) {
      const auto t = jobs[i]->iteration_times_seconds();
      if (k < static_cast<int>(t.size())) {
        incumbents += t[k];
        ++n;
      }
    }
    std::printf("%d,%.3f,%s\n", k, n > 0 ? incumbents / n : 0.0,
                k < static_cast<int>(j3.size())
                    ? std::to_string(j3[k]).substr(0, 5).c_str()
                    : "-");
  }
  for (int i = 0; i < 4; ++i) {
    std::printf("job %d converged(last-8): %.3fs\n", i,
                analysis::tail_mean(jobs[i]->iteration_times_seconds(), 8));
  }
}

// --------------------------------------------------------------------- E3

void scalability() {
  bench::print_header("E3: flowsim convergence vs number of jobs "
                      "(utilization fixed at 0.8)");
  std::printf("jobs,comm_fraction,iters_to_interleave\n");
  const std::vector<int> sizes = {2, 4, 6, 8, 12, 16, 24};
  const std::vector<int> convergence = runner::run_campaign<int, int>(
      sizes,
      [](const int n, std::size_t) {
        const double a = 0.8 / n;
        std::vector<analysis::PeriodicJob> jobs;
        for (int j = 0; j < n; ++j) {
          jobs.push_back({a * 1.8, 1.8 - a * 1.8, 0.01 * j, 0.0});
        }
        const auto run = analysis::run_dumbbell(jobs, nullptr, 1, 400, 2e4);
        bench::exit_if_truncated(run, "E3 jobs=" + std::to_string(n));
        int conv = 0;
        for (int j = 0; j < n; ++j) {
          const auto times = run.iteration_times(j);
          int last_bad = -1;
          for (std::size_t i = 0; i < times.size(); ++i) {
            if (times[i] > 1.8 * 1.02) last_bad = static_cast<int>(i);
          }
          conv = std::max(conv, last_bad + 1);
        }
        return conv;
      },
      bench::campaign_options());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::printf("%d,%.3f,%d\n", sizes[i], 0.8 / sizes[i], convergence[i]);
  }
}

// --------------------------------------------------------------------- E4

void drr_baseline() {
  bench::print_header("E4: switch-enforced fair queueing (DRR) vs MLTCP");
  auto run = [](bool drr, bool mltcp) {
    bench::ScenarioConfig scenario;
    if (drr) scenario.bottleneck_queue = net::make_drr_factory(256 * 1500);
    auto exp = bench::make_experiment(scenario);
    const workload::ModelProfile gpt2 = workload::gpt2_profile();
    const core::MltcpConfig cfg = bench::mltcp_config_for(gpt2, 1e9, 4);
    std::vector<workload::Job*> jobs;
    for (int i = 0; i < 3; ++i) {
      bench::ProfileJobOptions opts;
      opts.max_iterations = 40;
      opts.noise_stddev_seconds = 0.005;
      jobs.push_back(bench::add_profile_job(
          *exp, gpt2, i,
          mltcp ? core::mltcp_reno_factory(cfg) : core::reno_factory(),
          opts));
    }
    exp->cluster->start_all();
    exp->sim.run_until(sim::seconds(140));
    std::vector<double> tails;
    for (workload::Job* job : jobs) {
      tails.push_back(analysis::tail_mean(job->iteration_times_seconds(), 8));
    }
    return analysis::mean(tails);
  };
  struct Combo {
    bool drr;
    bool mltcp;
  };
  const std::vector<Combo> combos = {{false, false}, {true, false},
                                     {false, true}};
  const std::vector<double> tails = runner::run_campaign<Combo, double>(
      combos,
      [&run](const Combo& c, std::size_t) { return run(c.drr, c.mltcp); },
      bench::campaign_options());
  std::printf("reno + droptail : %.3fs\n", tails[0]);
  std::printf("reno + DRR      : %.3fs  <- perfect per-flow fairness alone "
              "does not interleave\n",
              tails[1]);
  std::printf("mltcp + droptail: %.3fs (ideal %.3fs)\n", tails[2],
              ideal_s());
}

// --------------------------------------------------------------------- E5

void sack_ablation() {
  bench::print_header("E5: SACK vs NewReno recovery under injected loss");
  auto run = [](bool sack, double loss) {
    sim::Simulator sim;
    net::DumbbellConfig dc;
    dc.hosts_per_side = 1;
    // WAN-ish RTT so recovery efficiency (not the link) limits throughput.
    dc.bottleneck_delay = sim::milliseconds(2);
    dc.bottleneck_queue = net::make_random_drop_factory(loss, 512 * 1500, 5);
    auto d = net::make_dumbbell(sim, dc);
    tcp::SenderConfig scfg;
    scfg.use_sack = sack;
    tcp::TcpFlow flow(sim, *d.left[0], *d.right[0], 1,
                      std::make_unique<tcp::RenoCC>(), scfg);
    sim::SimTime done = -1;
    flow.send_message(20'000'000, [&](sim::SimTime t) { done = t; });
    sim.run_until(sim::seconds(120));
    struct Out {
      double seconds;
      std::int64_t timeouts;
    };
    return Out{done > 0 ? sim::to_seconds(done) : -1.0,
               flow.sender().stats().timeouts};
  };
  struct LossSpec {
    bool sack;
    double loss;
  };
  std::vector<LossSpec> specs;
  for (const double p : {0.001, 0.005, 0.02}) {
    specs.push_back(LossSpec{false, p});
    specs.push_back(LossSpec{true, p});
  }
  using Out = decltype(run(false, 0.0));
  const std::vector<Out> outs = runner::run_campaign<LossSpec, Out>(
      specs,
      [&run](const LossSpec& s, std::size_t) { return run(s.sack, s.loss); },
      bench::campaign_options());
  std::printf("loss_p,newreno_s,newreno_rtos,sack_s,sack_rtos\n");
  for (std::size_t i = 0; i + 1 < outs.size(); i += 2) {
    const Out& nr = outs[i];
    const Out& sk = outs[i + 1];
    std::printf("%.3f,%.2f,%lld,%.2f,%lld\n", specs[i].loss, nr.seconds,
                static_cast<long long>(nr.timeouts), sk.seconds,
                static_cast<long long>(sk.timeouts));
  }
  std::printf("Observed shape: in the loss-limited regime windows are small "
              "(<= ~10 segments),\nso NewReno rarely faces multiple holes per "
              "window and SACK's advantage is modest.\n");
}

// --------------------------------------------------------------------- E6

void multi_bottleneck() {
  bench::print_header("E6: leaf-spine with two shared fabric links");
  // 3 racks, 1 spine. Jobs: A spans rack0->rack1 (uses tor0->spine and
  // spine->tor1), B spans rack1->rack2, C spans rack0->rack2 (shares the
  // uplink with A and the rack2 downlink with B). All links 1 Gbps.
  sim::Simulator sim;
  net::LeafSpineConfig ls_cfg;
  ls_cfg.racks = 3;
  ls_cfg.hosts_per_rack = 4;
  ls_cfg.spines = 1;
  ls_cfg.host_rate_bps = 4e9;
  ls_cfg.fabric_rate_bps = 1e9;
  net::LeafSpine ls = net::make_leaf_spine(sim, ls_cfg);

  const workload::ModelProfile gpt2 = workload::gpt2_profile();
  const std::int64_t total = workload::comm_bytes(gpt2, 1e9);
  core::MltcpConfig cfg;
  cfg.tracker.total_bytes = total / 4;
  cfg.tracker.comp_time = workload::compute_time(gpt2) / 2;

  workload::Cluster cluster(sim);
  struct Placement {
    const char* name;
    int src_rack;
    int dst_rack;
  };
  const Placement placements[] = {{"A(r0->r1)", 0, 1},
                                  {"B(r1->r2)", 1, 2},
                                  {"C(r0->r2)", 0, 2}};
  std::vector<workload::Job*> jobs;
  int host_slot = 0;
  for (const auto& pl : placements) {
    workload::JobSpec spec;
    spec.name = pl.name;
    for (int f = 0; f < 4; ++f) {
      spec.flows.push_back(workload::FlowSpec{
          ls.racks[pl.src_rack][host_slot % 4],
          ls.racks[pl.dst_rack][(host_slot + 1) % 4], total / 4});
    }
    ++host_slot;
    spec.compute_time = workload::compute_time(gpt2);
    spec.max_iterations = 45;
    spec.cc = core::mltcp_reno_factory(cfg);
    jobs.push_back(cluster.add_job(spec));
  }
  cluster.start_all();
  sim.run_until(sim::seconds(160));

  for (const workload::Job* job : jobs) {
    std::printf("%s: converged(last-8) %.3fs (ideal %.3fs)\n",
                job->name().c_str(),
                analysis::tail_mean(job->iteration_times_seconds(), 8),
                ideal_s());
  }
  std::printf("Expected shape: every job reaches its ideal once the pairwise "
              "per-link conflicts (A/C and B/C) interleave.\n");
}

}  // namespace

int main() {
  std::printf("MLTCP extension experiments (beyond the paper's "
              "evaluation).\n");
  pipeline_jobs();
  job_churn();
  scalability();
  drr_baseline();
  sack_ablation();
  multi_bottleneck();
  return 0;
}
