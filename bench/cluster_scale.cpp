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
// second, wall time and events per completed job message, and PDES null
// messages per event. A run that completes no transfer reports 0 in the
// per-transfer fields. Wall time is one run's; bench/perf is the wall-time
// harness that repeats and compares.
//
// Output: one `RESULT key=value ...` line per run (recorded by
// bench/record_baseline.py) plus a CSV in results_dir().
//
// Modes:
//   cluster_scale                  full sweep (8..256 jobs)
//   cluster_scale --quick          CI smoke point (8 jobs, short windows);
//                                  exits 1 over a work ceiling (below)
//   cluster_scale --only=NAME      run only scenarios named NAME
//                                  (dumbbell | leafspine)
//   cluster_scale --shards=N       run the leaf-spine sweep on the sharded
//                                  PDES engine (N shards, one worker thread
//                                  each). Model state and work are
//                                  identical at every shard count — the
//                                  `digest` and `events` fields and the
//                                  cluster_scale_sim.csv rows must not
//                                  change with N; wall time and the PDES
//                                  counters do.
//                                  Dumbbell scenarios stay serial (a 2-node
//                                  core offers no useful cut).
//   cluster_scale --jobs=N         add one leaf-spine point with N jobs (a
//                                  short window), e.g. the 2048-job sharded
//                                  scale record.
// Any other argument, or a value that is not one of these, exits 2.

#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/mltcp.hpp"
#include "net/topology.hpp"
#include "pdes/partition.hpp"
#include "pdes/sharded_runner.hpp"
#include "sim/simulator.hpp"
#include "tcp/flow.hpp"
#include "workload/cluster.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace mltcp;

/// Events per completed transfer that each --quick point may not exceed:
/// 1.5x what dumbbell-2, dumbbell-8 and leaf-spine-8 measured serially once
/// a hop became one event (a delivery pushed when serialization starts).
/// Reverting that fails both dumbbell ceilings (70,739.2 and 111,901.1
/// events per transfer), but not leaf-spine-8's (26,620.0).
constexpr double kQuickDumbbell2Ceiling = 1.5 * 41'768.4;
constexpr double kQuickDumbbell8Ceiling = 1.5 * 67'165.1;
constexpr double kQuickLeafSpine8Ceiling = 1.5 * 18'799.0;

struct RunResult {
  std::string name;
  int jobs = 0;
  int flows = 0;
  int shards = 1;
  int workers = 1;
  double sim_s = 0.0;
  std::uint64_t events = 0;
  std::int64_t transfers = 0;  ///< Completed job messages.
  double wall_s = 0.0;
  double rss_mb = 0.0;  ///< Process peak; points run in increasing size.
  std::uint64_t null_msgs = 0;
  std::uint64_t stalls = 0;
  std::uint64_t digest = 0;  ///< FNV-1a over final model state.

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
              "peak_rss_mb=%.1f null_msgs=%" PRIu64 " stalls=%" PRIu64
              " digest=%016" PRIx64 "\n",
              r.name.c_str(), r.jobs, r.flows, r.shards, r.workers, r.sim_s,
              r.events, r.transfers, r.wall_s, r.sim_s_per_wall_s(),
              r.per_transfer(r.wall_s * 1e6),
              r.per_transfer(static_cast<double>(r.events)),
              r.null_msgs_per_event(), r.rss_mb, r.null_msgs, r.stalls,
              r.digest);
  std::fflush(stdout);
}

// ------------------------------------------------------------ state digest

/// FNV-1a over the run's observable model state: every job's iteration
/// records and every link / host / switch counter. Identical across
/// execution modes by the PDES identity guarantee — the byte-diffable proof
/// that sharding changed nothing but wall time.
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
                           const net::Topology& topo) {
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
  return f.h;
}

/// Completed transfers, the work unit the per-transfer fields divide by:
/// every message a job's flow finished.
std::int64_t completed_transfers(const workload::Cluster& cluster) {
  std::int64_t n = 0;
  for (std::size_t j = 0; j < cluster.job_count(); ++j) {
    for (const tcp::TcpFlow* flow : cluster.flows_of(j)) {
      n += flow->sender().stats().messages_completed;
    }
  }
  return n;
}

/// Runs `sim` (serial) or `runner` (sharded, when non-null) until `deadline`
/// and fills in the measured rates.
RunResult measure(const std::string& name, int jobs, int flows,
                  sim::Simulator& sim, sim::SimTime deadline,
                  pdes::ShardedRunner* runner = nullptr) {
  RunResult r;
  r.name = name;
  r.jobs = jobs;
  r.flows = flows;
  r.sim_s = sim::to_seconds(deadline);
  const auto t0 = std::chrono::steady_clock::now();
  if (runner != nullptr) {
    runner->run_until(deadline);
  } else {
    sim.run_until(deadline);
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.events = sim.events_executed();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.rss_mb = bench::peak_rss_mb();
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
RunResult run_dumbbell(int n_jobs, sim::SimTime window) {
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
  exp->cluster->start_all();
  RunResult r = measure("dumbbell", n_jobs, n_jobs * 4, exp->sim, window);
  r.digest = state_digest(*exp->cluster, *exp->dumbbell.topology);
  r.transfers = completed_transfers(*exp->cluster);
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
/// co-located so job control stays shard-local) and jobs kick off in their
/// sender's shard. The model state — and therefore `digest` — is
/// byte-identical to the serial run.
RunResult run_leaf_spine(int n_jobs, int flows_per_job, sim::SimTime window,
                         int shards) {
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

  std::unique_ptr<pdes::ShardedRunner> runner;
  if (shards > 1) {
    pdes::PartitionOptions popts;
    popts.shards = shards;
    popts.co_locate = pdes::co_locate_senders(specs);
    const pdes::Partition part = pdes::partition_topology(*ls.topology, popts);
    sim.configure_shards(part.shards);
    runner = std::make_unique<pdes::ShardedRunner>(sim, *ls.topology, part);
    pdes::start_all_sharded(cluster, specs, sim, part);
  } else {
    cluster.start_all();
  }
  RunResult r = measure("leafspine", n_jobs, n_jobs * flows_per_job, sim,
                        window, runner.get());
  r.digest = state_digest(cluster, *ls.topology);
  r.transfers = completed_transfers(cluster);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int shards = 1;
  int extra_jobs = 0;
  std::string only;
  // Every bad argument is reported, then the run stops: a typo must never
  // run a different sweep than the one asked for.
  bool bad = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const char* want = nullptr;  // What a rejected value should have been.
    if (arg == "--quick") {
      quick = true;
    } else if (flag == "--only") {
      only = value;
      if (only != "dumbbell" && only != "leafspine") want = "a scenario name";
    } else if (flag == "--shards" || flag == "--jobs") {
      int& out = flag == "--jobs" ? extra_jobs : shards;
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), end, out);
      if (ec != std::errc() || ptr != end || out < 1) want = "an integer >= 1";
    } else {
      std::fprintf(stderr, "cluster_scale: unknown argument '%s'\n", argv[i]);
      bad = true;
    }
    if (want != nullptr) {
      std::fprintf(stderr, "cluster_scale: %s wants %s, got '%s'\n",
                   flag.c_str(), want, value.c_str());
      bad = true;
    }
  }
  if (bad) {
    std::fprintf(stderr,
                 "usage: cluster_scale [--quick] [--only=dumbbell|leafspine] "
                 "[--shards=N] [--jobs=N]\n");
    return 2;
  }
  const auto selected = [&only](const char* name) {
    return only.empty() || only == name;
  };

  bench::print_header(quick ? "cluster scale (quick)" : "cluster scale");
  if (shards > 1) {
    std::printf("sharded PDES execution: %d shards requested "
                "(dumbbell scenarios stay serial)\n",
                shards);
  }
  std::vector<RunResult> results;
  int status = 0;
  // Keeps a run; in --quick, first holds it to its work ceiling.
  const auto add = [&](RunResult r, double quick_ceiling = 0.0) {
    if (quick && quick_ceiling > 0.0) {
      const double work = r.per_transfer(static_cast<double>(r.events));
      const bool ok = r.transfers > 0 && work <= quick_ceiling;
      std::printf("work %s jobs=%d: %" PRId64
                  " transfers, %.1f events/transfer, ceiling %.1f -> %s\n",
                  r.name.c_str(), r.jobs, r.transfers, work, quick_ceiling,
                  ok ? "ok" : "FAILED");
      if (!ok) status = 1;
    }
    results.push_back(std::move(r));
  };

  // Dumbbell: windows sized so each run executes millions of events — long
  // enough to dominate setup cost. Always serial: a dumbbell has exactly
  // one inter-switch link, so a cut would serialize on the bottleneck
  // anyway.
  if (selected("dumbbell")) {
    add(run_dumbbell(2, sim::seconds(quick ? 4 : 20)), kQuickDumbbell2Ceiling);
    add(run_dumbbell(8, sim::seconds(quick ? 2 : 10)), kQuickDumbbell8Ceiling);
  }

  // Leaf-spine sweep: scaling in job count at a fixed fan-out.
  if (selected("leafspine")) {
    const int flows_per_job = 16;
    std::vector<int> sweep = quick ? std::vector<int>{8}
                                   : std::vector<int>{8, 32, 64, 128, 256};
    for (const int jobs : sweep) {
      const sim::SimTime window =
          quick ? sim::milliseconds(1500) : sim::seconds(jobs >= 128 ? 2 : 4);
      add(run_leaf_spine(jobs, flows_per_job, window, shards),
          kQuickLeafSpine8Ceiling);
    }
    // Optional extra scale point (e.g. the 2048-job sharded record): a short
    // window keeps the wall time bounded while every job still posts flows.
    // It is not held to a work ceiling: its window completes no GPT-2
    // message.
    if (extra_jobs > 0) {
      add(run_leaf_spine(extra_jobs, flows_per_job, sim::milliseconds(500),
                         shards));
    }
  }

  for (const RunResult& r : results) print_result(r);

  auto csv = bench::open_csv(
      "cluster_scale",
      {"name", "jobs", "flows", "shards", "workers", "sim_s", "events",
       "transfers", "wall_s", "sim_s_per_wall_s", "wall_us_per_transfer",
       "events_per_transfer", "null_msgs_per_event", "peak_rss_mb",
       "null_msgs", "stalls", "digest"});
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
              std::to_string(r.rss_mb), std::to_string(r.null_msgs),
              std::to_string(r.stalls), digest_hex});
  }

  // Simulation-deterministic companion CSV: the point, its events and its
  // digest, with no wall time or RSS. The shard-speedup gate byte-diffs
  // this file across shard counts, so a sharded run must reach the serial
  // state by the serial run's work.
  auto sim_csv = bench::open_csv(
      "cluster_scale_sim", {"name", "jobs", "flows", "sim_s", "events",
                            "digest"});
  for (const RunResult& r : results) {
    std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64, r.digest);
    sim_csv->row({r.name, std::to_string(r.jobs), std::to_string(r.flows),
                  std::to_string(r.sim_s), std::to_string(r.events),
                  digest_hex});
  }
  return status;
}
