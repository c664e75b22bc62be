#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/dumbbell_run.hpp"
#include "core/mltcp.hpp"
#include "net/topology.hpp"
#include "runner/campaign.hpp"
#include "runner/sinks.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "workload/cluster.hpp"
#include "workload/profiles.hpp"

namespace mltcp::bench {

/// Shared scenario: the paper's dumbbell testbed, scaled from 50 Gbps to
/// 1 Gbps (see DESIGN.md) so packet-level runs stay fast while iteration
/// times remain in the paper's 1-2 s range.
struct ScenarioConfig {
  double bottleneck_rate_bps = 1e9;
  double host_rate_bps = 4e9;
  int hosts_per_side = 8;
  sim::SimTime host_delay = sim::microseconds(5);
  sim::SimTime bottleneck_delay = sim::microseconds(20);
  net::QueueFactory bottleneck_queue;  ///< default drop-tail
};

/// One packet-level experiment: simulator + dumbbell + job cluster.
struct Experiment {
  sim::Simulator sim;
  net::Dumbbell dumbbell;
  std::unique_ptr<workload::Cluster> cluster;
  ScenarioConfig scenario;
  std::vector<std::unique_ptr<sim::RateBinner>> binners;

  net::Link& bottleneck() { return *dumbbell.bottleneck; }
};

std::unique_ptr<Experiment> make_experiment(const ScenarioConfig& cfg = {});

/// Adds a single-flow job crossing the bottleneck (left[i] -> right[i]),
/// shaped by `profile` at the experiment's bottleneck rate.
struct ProfileJobOptions {
  sim::SimTime start_time = 0;
  int max_iterations = 0;
  double noise_stddev_seconds = 0.0;
  bool pfabric_priority = false;
  /// Parallel TCP streams carrying the job's collective (NCCL uses several
  /// sockets per peer); the iteration's bytes are split evenly across them.
  int num_flows = 4;
  /// Added to the profile's compute time (e.g. period-harmonization pads).
  sim::SimTime extra_compute = 0;
  /// See JobConfig::gate_period (centralized schedule enforcement).
  sim::SimTime gate_period = 0;
};

workload::Job* add_profile_job(Experiment& exp,
                               const workload::ModelProfile& profile,
                               int host_index, const tcp::CcFactory& cc,
                               const ProfileJobOptions& opts = {});

/// MLTCP configuration matched to a profile: TOTAL_BYTES is each flow's
/// share of the job's bytes per iteration and COMP_TIME is half the compute
/// phase (well above any RTT, well below the real gap).
core::MltcpConfig mltcp_config_for(const workload::ModelProfile& profile,
                                   double bottleneck_rate_bps,
                                   int num_flows = 4);

/// Attaches a per-flow bandwidth binner to the forward bottleneck link.
/// Returned pointers live as long as the experiment.
sim::RateBinner* bottleneck_binner_for_flow(Experiment& exp, net::FlowId flow,
                                            sim::SimTime bin_width);

/// Binner aggregating all flows of one job (by cluster job index).
sim::RateBinner* bottleneck_binner_for_job(Experiment& exp,
                                           std::size_t job_index,
                                           sim::SimTime bin_width);

/// One member of the congestion-control family the paper's §3.1/§6 claim
/// covers. `ecn_bottleneck` asks for an ECN-marking bottleneck queue, the
/// signal DCTCP and Gemini's intra-DC loop need.
struct CcVariant {
  std::string name;
  tcp::CcFactory cc;
  bool ecn_bottleneck = false;
};

/// Reno, CUBIC, DCTCP, Swift, BBR and Gemini, ordered as (plain, MLTCP)
/// pairs: entry 2k+1 is entry 2k with the MLTCP gain configured by `cfg`.
std::vector<CcVariant> cc_family(const core::MltcpConfig& cfg);

/// ---- memory attribution ----

/// Process-wide peak RSS in MB. This is a kernel high-water mark: across a
/// campaign it reflects the largest-footprint run so far plus the harness,
/// never the current scenario alone — report it as the campaign-level peak,
/// not a per-run cost.
double peak_rss_mb();

/// ---- report helpers (stdout, markdown-ish tables) ----

void print_header(const std::string& title);
void print_series(const std::string& name, const std::vector<double>& xs);
void print_row(const std::vector<std::string>& cells);

/// Exits 1 with a FATAL line naming `what` when a run_dumbbell() result is
/// truncated: per-iteration statistics of a run that hit its time budget
/// under-count exactly the slow iterations they report.
void exit_if_truncated(const analysis::DumbbellRun& run,
                       const std::string& what);

/// Reads the command line of a bench whose only flag is `--quick` and
/// returns whether it was given. Every other argument is reported with a
/// usage line and the process exits 2: a typo must never run a different
/// sweep than the one asked for.
bool quick_flag(int argc, char** argv);

/// ---- campaign execution ----

/// Thread options for a bench's parameter sweep: MLTCP_THREADS environment
/// variable, 0/unset = hardware concurrency, 1 = serial reference run,
/// anything else exits 2.
/// Every bench shards its sweep through runner::run_campaign with these
/// options; results are keyed by spec index, so the printed output and any
/// CSV are byte-identical at every thread count.
runner::CampaignOptions campaign_options();

/// Writes an aggregated campaign CSV to results_dir()/<name>.csv.
void write_sink(const runner::CsvSink& sink, const std::string& name);

/// ---- machine-readable results ----

/// Directory where benches drop CSVs (created on demand). Defaults to
/// "results/", overridable via the MLTCP_RESULTS_DIR environment variable.
std::string results_dir();

/// Opens results_dir()/<name>.csv with the given header.
std::unique_ptr<sim::CsvWriter> open_csv(
    const std::string& name, const std::vector<std::string>& header);

}  // namespace mltcp::bench
