// Cluster-scale forwarding benchmark: how fast the packet path simulates as
// the workload grows from the paper's dumbbell to a leaf-spine fabric with
// hundreds of jobs and thousands of flows.
//
// Two parts:
//  - dumbbell scenarios: the fig4/fig6-shaped workloads whose per-packet
//    cost the forwarding path dominates.
//  - leaf-spine sweep: jobs x flows-per-job scaling (8 -> 256 jobs, up to
//    ~4k flows) across a racks x spines fabric, recording wall time and
//    peak RSS — the memory-stability evidence for cluster scale.
//
// Every run is scored per unit of useful work, not per event (a change that
// adds events would otherwise look faster): simulated seconds per wall
// second, wall time and events per completed transfer (job messages plus
// background transfers), and PDES null messages per event. A run that
// completes no transfer reports 0 in the per-transfer fields.
//
// Output: one `RESULT key=value ...` line per run (recorded and gated by
// bench/record_baseline.py) plus a CSV in results_dir().
//
// Modes:
//   cluster_scale                  full sweep (8..256 jobs)
//   cluster_scale --quick          CI smoke point (8 jobs, short windows)
//   cluster_scale --only=NAME      run only scenarios named NAME
//                                  (dumbbell | leafspine)
//   cluster_scale --repeat=N       run each scenario N times, report the
//                                  fastest (simulated work is identical per
//                                  repeat; min wall time is the standard
//                                  noise-robust estimator on shared hosts)
//   cluster_scale --background=P   overlay a Reno background traffic matrix
//                                  (poisson | incast | tornado | alltoall |
//                                  permutation) on every run, so the gated
//                                  throughput also covers the mixed-traffic
//                                  forwarding path. The pattern is recorded
//                                  in the RESULT lines / CSV / JSON, keeping
//                                  background and clean numbers separate.
//   cluster_scale --shards=N       run the leaf-spine sweep on the sharded
//                                  PDES engine (N shards, one worker thread
//                                  each). Model state is byte-identical
//                                  at every shard count — the `digest` field
//                                  and the cluster_scale_sim.csv rows must
//                                  not change with N, only wall time does.
//                                  Dumbbell scenarios stay serial (a 2-node
//                                  core offers no useful cut).
//   cluster_scale --jobs=N         add one leaf-spine point with N jobs (a
//                                  short window), e.g. the 2048-job sharded
//                                  scale record.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/mltcp.hpp"
#include "net/topology.hpp"
#include "pdes/partition.hpp"
#include "pdes/sharded_runner.hpp"
#include "sim/simulator.hpp"
#include "tcp/cong_control.hpp"
#include "tcp/flow.hpp"
#include "traffic/source.hpp"
#include "workload/cluster.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace mltcp;

struct RunResult {
  std::string name;
  int jobs = 0;
  int flows = 0;
  int shards = 1;
  int workers = 1;
  double sim_s = 0.0;
  std::uint64_t events = 0;
  std::int64_t transfers = 0;  ///< Completed job messages + background.
  double wall_s = 0.0;
  double rss_mb = 0.0;        ///< Campaign-level peak (high-water mark).
  double rss_delta_mb = 0.0;  ///< Peak growth during this run (serial only).
  std::uint64_t null_msgs = 0;
  std::uint64_t stalls = 0;
  std::uint64_t digest = 0;  ///< FNV-1a over final model state.
  std::string background = "none";

  double sim_s_per_wall_s() const {
    return wall_s > 0.0 ? sim_s / wall_s : 0.0;
  }
  double per_transfer(double x) const {
    return transfers > 0 ? x / static_cast<double>(transfers) : 0.0;
  }
  double null_msgs_per_event() const {
    return events > 0 ? static_cast<double>(null_msgs) /
                            static_cast<double>(events)
                      : 0.0;
  }
};

void print_result(const RunResult& r) {
  std::printf("RESULT name=%s jobs=%d flows=%d shards=%d workers=%d "
              "sim_s=%.3f events=%" PRIu64 " transfers=%" PRId64
              " wall_s=%.4f sim_s_per_wall_s=%.4f wall_us_per_transfer=%.2f "
              "events_per_transfer=%.1f null_msgs_per_event=%.4f "
              "peak_rss_mb=%.1f rss_delta_mb=%.1f "
              "null_msgs=%" PRIu64 " stalls=%" PRIu64 " digest=%016" PRIx64
              " background=%s\n",
              r.name.c_str(), r.jobs, r.flows, r.shards, r.workers, r.sim_s,
              r.events, r.transfers, r.wall_s, r.sim_s_per_wall_s(),
              r.per_transfer(r.wall_s * 1e6),
              r.per_transfer(static_cast<double>(r.events)),
              r.null_msgs_per_event(), r.rss_mb, r.rss_delta_mb, r.null_msgs,
              r.stalls, r.digest, r.background.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------ state digest

/// FNV-1a over the run's observable model state: every job's iteration
/// records, every link / host / switch counter, and the background source's
/// transfer totals. Identical across execution modes by the PDES identity
/// guarantee — the byte-diffable proof that sharding changed nothing but
/// wall time.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

std::uint64_t state_digest(const workload::Cluster& cluster,
                           const net::Topology& topo,
                           const traffic::TrafficSource* background) {
  Fnv f;
  for (std::size_t j = 0; j < cluster.job_count(); ++j) {
    const workload::Job* job = cluster.job(j);
    f.add(static_cast<std::uint64_t>(job->completed_iterations()));
    for (const workload::IterationRecord& r : job->iterations()) {
      f.add(static_cast<std::uint64_t>(r.comm_start));
      f.add(static_cast<std::uint64_t>(r.comm_end));
      f.add(static_cast<std::uint64_t>(r.iter_end));
    }
  }
  for (const auto& link : topo.links()) {
    f.add(static_cast<std::uint64_t>(link->bytes_transmitted()));
    f.add(static_cast<std::uint64_t>(link->packets_transmitted()));
    f.add(static_cast<std::uint64_t>(link->fault_drops()));
  }
  for (const net::Host* h : topo.hosts()) {
    f.add(static_cast<std::uint64_t>(h->delivered_packets()));
  }
  for (const net::Switch* s : topo.switches()) {
    f.add(static_cast<std::uint64_t>(s->forwarded_packets()));
  }
  if (background != nullptr) {
    f.add(background->posted());
    f.add(background->completed());
    f.add(static_cast<std::uint64_t>(background->bytes_completed()));
  }
  return f.h;
}

/// Completed transfers, the work unit the per-transfer fields divide by:
/// every message a job's flow finished plus every finished background
/// transfer.
std::int64_t completed_transfers(const workload::Cluster& cluster,
                                 const traffic::TrafficSource* background) {
  std::int64_t n = background != nullptr
                       ? static_cast<std::int64_t>(background->completed())
                       : 0;
  for (std::size_t j = 0; j < cluster.job_count(); ++j) {
    for (const tcp::TcpFlow* flow : cluster.flows_of(j)) {
      n += flow->sender().stats().messages_completed;
    }
  }
  return n;
}

// ---------------------------------------------------------------- background

/// "none", or a traffic::Pattern display name. Parsed once in main; invalid
/// names abort instead of silently measuring the clean path under a label
/// that claims otherwise.
struct BackgroundSpec {
  bool enabled = false;
  traffic::Pattern pattern = traffic::Pattern::kPoisson;
  std::string label = "none";
};

BackgroundSpec parse_background(const std::string& name) {
  BackgroundSpec spec;
  if (name.empty() || name == "none") return spec;
  for (const traffic::Pattern p : traffic::all_patterns()) {
    if (name == traffic::pattern_name(p)) {
      spec.enabled = true;
      spec.pattern = p;
      spec.label = name;
      return spec;
    }
  }
  std::fprintf(stderr, "unknown --background pattern '%s' (valid: none",
               name.c_str());
  for (const traffic::Pattern p : traffic::all_patterns()) {
    std::fprintf(stderr, " | %s", traffic::pattern_name(p));
  }
  std::fprintf(stderr, ")\n");
  std::exit(2);
}

/// Overlays the pattern on `hosts` for the whole measurement window. Plain
/// Reno with Pareto sizes — the legacy datacenter mix the training jobs
/// contend with; intensity is fixed so throughput across sweeps stays
/// comparable. Under sharded execution pass `lane_of`/`lanes` (the
/// partition's shard mapper) so arrivals replay on per-shard lanes — the
/// arrival schedule, flow ids and FCT records stay identical to serial.
std::unique_ptr<traffic::TrafficSource> install_background(
    sim::Simulator& sim, workload::Cluster& cluster,
    std::vector<net::Host*> hosts, const BackgroundSpec& spec,
    sim::SimTime window,
    const std::function<int(const net::Host*)>& lane_of = {}, int lanes = 1) {
  if (!spec.enabled) return nullptr;
  auto source = std::make_unique<traffic::TrafficSource>(
      sim, cluster, std::move(hosts),
      traffic::SourceOptions{[] { return std::make_unique<tcp::RenoCC>(); },
                             {},
                             {}});
  traffic::TrafficConfig cfg;
  cfg.pattern = spec.pattern;
  cfg.size_dist = traffic::SizeDist::kPareto;
  cfg.mean_bytes = 40'000;
  cfg.flows_per_second = 400.0;
  cfg.epoch = sim::milliseconds(200);
  cfg.start = 0;
  cfg.stop = window;
  cfg.seed = 1;  // One fixed stream per pattern; repeats stay identical.
  if (lane_of) source->set_lane_map(lane_of, lanes);
  source->install(cfg);
  return source;
}

/// Runs `sim` (serial) or `runner` (sharded, when non-null) until `deadline`
/// and fills in the measured rates plus the per-run RSS delta.
RunResult measure(const std::string& name, int jobs, int flows,
                  sim::Simulator& sim, sim::SimTime deadline,
                  pdes::ShardedRunner* runner = nullptr) {
  RunResult r;
  r.name = name;
  r.jobs = jobs;
  r.flows = flows;
  r.sim_s = sim::to_seconds(deadline);
  auto probe = bench::RssProbe::begin();
  const auto t0 = std::chrono::steady_clock::now();
  if (runner != nullptr) {
    runner->run_until(deadline);
  } else {
    sim.run_until(deadline);
  }
  const auto t1 = std::chrono::steady_clock::now();
  probe.end();
  r.events = sim.events_executed();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.rss_mb = bench::peak_rss_mb();
  r.rss_delta_mb = probe.delta_mb();
  if (runner != nullptr) {
    r.shards = runner->shards();
    r.workers = runner->workers();
    const pdes::ShardStats totals = runner->totals();
    r.null_msgs = totals.null_updates;
    r.stalls = totals.stalls;
  }
  return r;
}

// ------------------------------------------------------------- dumbbell part

/// The fig4 shape: `n_jobs` MLTCP-Reno jobs with 4 flows each on the shared
/// dumbbell bottleneck, the per-packet path at its most cache-friendly.
RunResult run_dumbbell(int n_jobs, sim::SimTime window,
                       const BackgroundSpec& background) {
  bench::ScenarioConfig cfg;
  cfg.hosts_per_side = n_jobs;
  auto exp = bench::make_experiment(cfg);
  const workload::ModelProfile gpt2 = workload::gpt2_profile();
  const core::MltcpConfig mcfg =
      bench::mltcp_config_for(gpt2, cfg.bottleneck_rate_bps);
  for (int j = 0; j < n_jobs; ++j) {
    bench::ProfileJobOptions opts;
    opts.start_time = sim::milliseconds(40 * j);
    bench::add_profile_job(*exp, gpt2, j, core::mltcp_reno_factory(mcfg),
                           opts);
  }
  std::vector<net::Host*> hosts(exp->dumbbell.left.begin(),
                                exp->dumbbell.left.end());
  hosts.insert(hosts.end(), exp->dumbbell.right.begin(),
               exp->dumbbell.right.end());
  const auto source = install_background(exp->sim, *exp->cluster,
                                         std::move(hosts), background, window);
  exp->cluster->start_all();
  RunResult r = measure("dumbbell", n_jobs, n_jobs * 4, exp->sim, window);
  r.background = background.label;
  r.digest = state_digest(*exp->cluster, *exp->dumbbell.topology, source.get());
  r.transfers = completed_transfers(*exp->cluster, source.get());
  return r;
}

// ------------------------------------------------------------ leaf-spine part

/// One scale point: `n_jobs` jobs of `flows_per_job` flows each on a
/// racks x spines fabric. Jobs are placed round-robin on rack pairs
/// (rack r -> rack r+1), so neighbouring jobs share ToR uplinks and the
/// spine layer spreads flows by ECMP where available.
///
/// With `shards > 1` the run executes on the sharded PDES engine: the
/// fabric is partitioned along rack boundaries (every job's sender hosts
/// co-located so job control stays shard-local), background arrivals replay
/// on per-shard lanes, and jobs kick off in their sender's shard. The model
/// state — and therefore `digest` — is byte-identical to the serial run.
RunResult run_leaf_spine(int n_jobs, int flows_per_job, sim::SimTime window,
                         const BackgroundSpec& background, int shards) {
  sim::Simulator sim;
  net::LeafSpineConfig ls_cfg;
  ls_cfg.racks = 16;
  ls_cfg.hosts_per_rack = 16;
  ls_cfg.spines = 4;
  ls_cfg.host_rate_bps = 4e9;
  ls_cfg.fabric_rate_bps = 1e9;
  net::LeafSpine ls = net::make_leaf_spine(sim, ls_cfg);

  const workload::ModelProfile gpt2 = workload::gpt2_profile();
  const std::int64_t total_bytes =
      workload::comm_bytes(gpt2, ls_cfg.fabric_rate_bps);
  core::MltcpConfig mcfg;
  mcfg.tracker.total_bytes = total_bytes / flows_per_job;
  mcfg.tracker.comp_time = workload::compute_time(gpt2) / 2;

  std::vector<workload::JobSpec> specs;
  for (int j = 0; j < n_jobs; ++j) {
    const int src_rack = j % ls_cfg.racks;
    const int dst_rack = (src_rack + 1) % ls_cfg.racks;
    const int base_host = (j / ls_cfg.racks) % ls_cfg.hosts_per_rack;
    workload::JobSpec spec;
    spec.name = "job" + std::to_string(j);
    for (int f = 0; f < flows_per_job; ++f) {
      const int h = (base_host + f) % ls_cfg.hosts_per_rack;
      spec.flows.push_back(workload::FlowSpec{
          ls.racks[src_rack][h], ls.racks[dst_rack][h],
          total_bytes / flows_per_job});
    }
    spec.compute_time = workload::compute_time(gpt2);
    spec.start_time = sim::milliseconds(10 * (j % 64));
    spec.cc = core::mltcp_reno_factory(mcfg);
    specs.push_back(std::move(spec));
  }

  workload::Cluster cluster(sim);
  for (const workload::JobSpec& spec : specs) cluster.add_job(spec);
  std::vector<net::Host*> hosts;
  for (const auto& rack : ls.racks) {
    hosts.insert(hosts.end(), rack.begin(), rack.end());
  }

  std::unique_ptr<pdes::ShardedRunner> runner;
  std::unique_ptr<traffic::TrafficSource> source;
  if (shards > 1) {
    pdes::PartitionOptions popts;
    popts.shards = shards;
    popts.co_locate = pdes::co_locate_senders(specs);
    const pdes::Partition part = pdes::partition_topology(*ls.topology, popts);
    sim.configure_shards(part.shards);
    source = install_background(
        sim, cluster, std::move(hosts), background, window,
        [part](const net::Host* h) { return part.shard_of(h); }, part.shards);
    runner = std::make_unique<pdes::ShardedRunner>(sim, *ls.topology, part);
    pdes::start_all_sharded(cluster, specs, sim, part);
  } else {
    source = install_background(sim, cluster, std::move(hosts), background,
                                window);
    cluster.start_all();
  }
  RunResult r = measure("leafspine", n_jobs, n_jobs * flows_per_job, sim,
                        window, runner.get());
  r.background = background.label;
  r.digest = state_digest(cluster, *ls.topology, source.get());
  r.transfers = completed_transfers(cluster, source.get());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int repeat = 1;
  int shards = 1;
  int extra_jobs = 0;
  std::string only;
  std::string background_name;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strncmp(argv[i], "--only=", 7) == 0) only = argv[i] + 7;
    if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      repeat = std::max(1, std::atoi(argv[i] + 9));
    }
    if (std::strncmp(argv[i], "--background=", 13) == 0) {
      background_name = argv[i] + 13;
    }
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = std::max(1, std::atoi(argv[i] + 9));
    }
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      extra_jobs = std::max(0, std::atoi(argv[i] + 7));
    }
  }
  const BackgroundSpec background = parse_background(background_name);
  const auto selected = [&only](const char* name) {
    return only.empty() || only == name;
  };
  // Every repeat simulates the identical event sequence; only the wall time
  // varies (host noise), so keeping the fastest run measures the code, not
  // the neighbours.
  const auto best_of = [repeat](const auto& run) {
    RunResult best = run();
    for (int i = 1; i < repeat; ++i) {
      RunResult r = run();
      if (r.wall_s < best.wall_s) best = r;
    }
    return best;
  };

  bench::print_header(quick ? "cluster scale (quick)" : "cluster scale");
  if (shards > 1) {
    std::printf("sharded PDES execution: %d shards requested "
                "(dumbbell scenarios stay serial)\n",
                shards);
  }
  std::vector<RunResult> results;

  // Dumbbell: the perf-gated scenarios. Windows sized so each run executes
  // tens of millions of events — long enough to dominate setup cost.
  // Always serial: a dumbbell has exactly one inter-switch link, so a cut
  // would serialize on the bottleneck anyway.
  if (selected("dumbbell")) {
    results.push_back(best_of([&] {
      return run_dumbbell(2, sim::seconds(quick ? 4 : 20), background);
    }));
    results.push_back(best_of([&] {
      return run_dumbbell(8, sim::seconds(quick ? 2 : 10), background);
    }));
  }

  // Leaf-spine sweep: scaling in job count at a fixed fan-out.
  if (selected("leafspine")) {
    const int flows_per_job = 16;
    std::vector<int> sweep = quick ? std::vector<int>{8}
                                   : std::vector<int>{8, 32, 64, 128, 256};
    for (const int jobs : sweep) {
      const sim::SimTime window =
          quick ? sim::milliseconds(1500) : sim::seconds(jobs >= 128 ? 2 : 4);
      results.push_back(best_of([&] {
        return run_leaf_spine(jobs, flows_per_job, window, background, shards);
      }));
    }
    // Optional extra scale point (e.g. the 2048-job sharded record): a short
    // window keeps the wall time bounded while every job still posts flows.
    if (extra_jobs > 0) {
      results.push_back(best_of([&] {
        return run_leaf_spine(extra_jobs, flows_per_job,
                              sim::milliseconds(500), background, shards);
      }));
    }
  }

  for (const RunResult& r : results) print_result(r);

  auto csv = bench::open_csv(
      "cluster_scale",
      {"name", "jobs", "flows", "shards", "workers", "sim_s", "events",
       "transfers", "wall_s", "sim_s_per_wall_s", "wall_us_per_transfer",
       "events_per_transfer", "null_msgs_per_event", "peak_rss_mb",
       "rss_delta_mb", "null_msgs", "stalls", "digest", "background"});
  char digest_hex[17];
  for (const RunResult& r : results) {
    std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64, r.digest);
    csv->row({r.name, std::to_string(r.jobs), std::to_string(r.flows),
              std::to_string(r.shards), std::to_string(r.workers),
              std::to_string(r.sim_s), std::to_string(r.events),
              std::to_string(r.transfers), std::to_string(r.wall_s),
              std::to_string(r.sim_s_per_wall_s()),
              std::to_string(r.per_transfer(r.wall_s * 1e6)),
              std::to_string(r.per_transfer(static_cast<double>(r.events))),
              std::to_string(r.null_msgs_per_event()),
              std::to_string(r.rss_mb), std::to_string(r.rss_delta_mb),
              std::to_string(r.null_msgs), std::to_string(r.stalls),
              digest_hex, r.background});
  }

  // Simulation-deterministic companion CSV: only fields that are a pure
  // function of the model (no wall time, no RSS, and no event count — lane
  // timers repartition replay events across shards). The shard-speedup gate
  // byte-diffs this file across shard counts.
  auto sim_csv = bench::open_csv(
      "cluster_scale_sim",
      {"name", "jobs", "flows", "sim_s", "background", "digest"});
  for (const RunResult& r : results) {
    std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64, r.digest);
    sim_csv->row({r.name, std::to_string(r.jobs), std::to_string(r.flows),
                  std::to_string(r.sim_s), r.background, digest_hex});
  }
  return 0;
}
