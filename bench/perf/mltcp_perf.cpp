// mltcp_perf: one repeat of one benchmark workload, in a fresh process.
//
//   mltcp_perf --workload=NAME --seed=N [--trace] [--trace-out=PATH]
//              [--shards=N]
//
// Builds the workload's world kSetups times (timing each build; the last one
// runs), runs it over its fixed simulated window in kSlices equal slices
// (timing each), checks the model's outputs, and prints one JSON object on
// stdout: raw timings, deterministic work counters, an FNV-1a digest of the
// model state and the names of any failed checks. bench/perf/run.py turns
// repeats of this into the benchmark's metrics.
//
// --trace installs the span-timing decorators of layers.hpp at the
// simulator's public seams and adds per-layer span totals to the output
// (and a Chrome trace to --trace-out). --shards=N runs leafspine-256 on N
// threaded PDES shards; pdes_divergence.sh uses it.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/metrics.hpp"
#include "core/mltcp.hpp"
#include "flowsim/flow_simulator.hpp"
#include "layers.hpp"
#include "net/topology.hpp"
#include "pdes/partition.hpp"
#include "pdes/sharded_runner.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "tcp/reno.hpp"
#include "traffic/pattern.hpp"
#include "traffic/source.hpp"
#include "workload/cluster.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace mltcp;
using perf::SpanTracer;

constexpr int kSetups = 3;     ///< World builds per process.
constexpr int kSlices = 1000;  ///< Equal slices of the simulated window.
constexpr std::size_t kSpanRecords = 200'000;

/// Per-iteration compute noise of every training job (the §4 model).
constexpr double kComputeNoiseSeconds = 0.001;

/// Everything one run owns, declared so that destruction runs from the
/// workload down to the simulator.
struct World {
  sim::Simulator sim;
  std::unique_ptr<net::Topology> topo;
  std::unique_ptr<perf::PacketBackend> packet;
  std::unique_ptr<flowsim::FlowSimulator> fluid;
  std::unique_ptr<perf::TimedBackend> timed;
  std::unique_ptr<workload::Cluster> cluster;
  std::unique_ptr<traffic::TrafficSource> source;
  std::unique_ptr<pdes::ShardedRunner> runner;

  sim::SimTime window = 0;
  sim::SimTime ideal_iteration = 0;  ///< 0 when there are no training jobs.
  std::size_t arrivals = 0;          ///< Generated Poisson arrivals.
  double generate_ms = 0.0;          ///< Wall time of arrival generation.

  void run_until(sim::SimTime t) {
    if (runner != nullptr) {
      runner->run_until(t);
    } else {
      sim.run_until(t);
    }
  }
};

struct BuildArgs {
  std::uint64_t seed = 1;
  SpanTracer* tracer = nullptr;  ///< Non-null in the traced run.
  int shards = 1;
};

// ------------------------------------------------------------ world pieces

/// Installs the packet or flow-level backend (behind the timing decorator in
/// the traced run) and the cluster on top of it.
void attach_backend(World& w, bool fluid, const BuildArgs& a) {
  workload::Backend* backend = nullptr;
  if (fluid) {
    w.fluid = std::make_unique<flowsim::FlowSimulator>(w.sim, *w.topo);
    backend = w.fluid.get();
  } else {
    w.packet = std::make_unique<perf::PacketBackend>(w.sim);
    backend = w.packet.get();
  }
  if (a.tracer != nullptr) {
    w.timed = std::make_unique<perf::TimedBackend>(*backend, *a.tracer);
    backend = w.timed.get();
  }
  w.cluster = std::make_unique<workload::Cluster>(w.sim, a.seed);
  w.cluster->set_backend(backend);
}

/// MLTCP-Reno per flow. Traced packet runs build it from its parts so the
/// MLTCP gain can be timed on its own; flowsim must see the bare
/// core::MltcpGain, so there only the controller is wrapped.
tcp::CcFactory mltcp_reno(const core::MltcpConfig& cfg, const BuildArgs& a,
                          bool fluid) {
  if (a.tracer == nullptr) return core::mltcp_reno_factory(cfg);
  if (fluid) {
    return perf::timed_cc_factory(core::mltcp_reno_factory(cfg), *a.tracer);
  }
  auto f = core::make_linear_function(cfg);
  SpanTracer* tracer = a.tracer;
  return perf::timed_cc_factory(
      [cfg, f, tracer] {
        auto gain = std::make_shared<perf::TimedGain>(
            std::make_shared<core::MltcpGain>(f, cfg.tracker), *tracer);
        return std::make_unique<tcp::RenoCC>(tcp::RenoConfig{},
                                             std::move(gain));
      },
      *a.tracer);
}

tcp::CcFactory reno(const BuildArgs& a) {
  tcp::CcFactory plain = core::reno_factory();
  if (a.tracer == nullptr) return plain;
  return perf::timed_cc_factory(std::move(plain), *a.tracer);
}

using Racks = std::vector<std::vector<net::Host*>>;

/// The 16 racks x 16 hosts x 4 spines fabric of bench/cluster_scale. The
/// traced run reproduces make_leaf_spine's default drop-tail queues.
Racks make_fabric(World& w, const BuildArgs& a) {
  net::LeafSpineConfig cfg;
  cfg.racks = 16;
  cfg.hosts_per_rack = 16;
  cfg.spines = 4;
  cfg.host_rate_bps = 4e9;
  cfg.fabric_rate_bps = 1e9;
  if (a.tracer != nullptr) {
    cfg.queue =
        perf::timed_queue_factory(net::make_droptail_factory(512 * 1500),
                                  *a.tracer);
  }
  net::LeafSpine ls = net::make_leaf_spine(w.sim, cfg);
  w.topo = std::move(ls.topology);
  return std::move(ls.racks);
}

/// `jobs` training jobs of `flows_per_job` flows each, placed as in
/// bench/cluster_scale: job j sends from rack j mod 16 to the next rack,
/// its flows on consecutive hosts.
std::vector<workload::JobSpec> rack_pair_jobs(const Racks& racks, int jobs,
                                              int flows_per_job,
                                              std::int64_t bytes_per_flow) {
  const int n_racks = static_cast<int>(racks.size());
  const int hosts_per_rack = static_cast<int>(racks[0].size());
  std::vector<workload::JobSpec> specs;
  for (int j = 0; j < jobs; ++j) {
    const int src_rack = j % n_racks;
    const int dst_rack = (src_rack + 1) % n_racks;
    const int base_host = (j / n_racks) % hosts_per_rack;
    workload::JobSpec spec;
    spec.name = "job" + std::to_string(j);
    for (int f = 0; f < flows_per_job; ++f) {
      const int h = (base_host + f) % hosts_per_rack;
      spec.flows.push_back(workload::FlowSpec{
          racks[src_rack][h], racks[dst_rack][h], bytes_per_flow});
    }
    spec.noise_stddev_seconds = kComputeNoiseSeconds;
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Poisson arrivals over all hosts at 16,000 flows/s with bounded-Pareto
/// sizes of 40 KB mean (the flowsim_scale matrix), on plain Reno.
void install_poisson(World& w, const Racks& racks, sim::SimTime stop,
                     const BuildArgs& a) {
  std::vector<net::Host*> hosts;
  for (const auto& rack : racks) {
    hosts.insert(hosts.end(), rack.begin(), rack.end());
  }
  w.source = std::make_unique<traffic::TrafficSource>(
      w.sim, *w.cluster, hosts, traffic::SourceOptions{reno(a), {}, {}});
  traffic::TrafficConfig tc;
  tc.pattern = traffic::Pattern::kPoisson;
  tc.size_dist = traffic::SizeDist::kPareto;
  tc.mean_bytes = 40'000;
  tc.flows_per_second = 16'000.0;
  tc.start = 0;
  tc.stop = stop;
  tc.seed = a.seed;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<traffic::FlowArrival> arrivals =
      traffic::generate_arrivals(tc, static_cast<int>(hosts.size()));
  w.generate_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  w.arrivals = arrivals.size();
  w.source->install(std::move(arrivals));
}

// --------------------------------------------------------------- workloads

/// 8 GPT-2 MLTCP-Reno jobs x 4 flows on the paper's 1 Gbps dumbbell (the
/// bench::make_experiment testbed), started 40 ms apart with +-5 ms of
/// seeded jitter.
std::unique_ptr<World> build_dumbbell(const BuildArgs& a) {
  constexpr int kJobs = 8;
  constexpr int kFlowsPerJob = 4;
  auto w = std::make_unique<World>();
  net::DumbbellConfig dc;
  dc.hosts_per_side = kJobs;
  dc.host_rate_bps = 4e9;
  dc.bottleneck_rate_bps = 1e9;
  dc.host_delay = sim::microseconds(5);
  dc.bottleneck_delay = sim::microseconds(20);
  if (a.tracer != nullptr) {
    // make_dumbbell's defaults: 4 MiB at hosts, 2 ms of line rate (at
    // least 64 packets) at the bottleneck.
    dc.host_queue = perf::timed_queue_factory(
        net::make_droptail_factory(4 * 1024 * 1024), *a.tracer);
    const auto bneck = static_cast<std::int64_t>(
        dc.bottleneck_rate_bps / 8.0 * sim::to_seconds(sim::milliseconds(2)));
    dc.bottleneck_queue = perf::timed_queue_factory(
        net::make_droptail_factory(std::max<std::int64_t>(bneck, 64 * 1500)),
        *a.tracer);
  }
  net::Dumbbell d = net::make_dumbbell(w->sim, dc);
  w->topo = std::move(d.topology);
  attach_backend(*w, false, a);

  const workload::ModelProfile gpt2 = workload::gpt2_profile();
  const std::int64_t bytes = workload::comm_bytes(gpt2, dc.bottleneck_rate_bps);
  core::MltcpConfig mcfg;
  mcfg.tracker.total_bytes = bytes / kFlowsPerJob;
  mcfg.tracker.comp_time = workload::compute_time(gpt2) / 2;
  std::uint64_t jitter = sim::derive_seed(a.seed, 0xd0bb);
  for (int j = 0; j < kJobs; ++j) {
    workload::JobSpec spec;
    spec.name = "gpt2@" + std::to_string(j);
    for (int f = 0; f < kFlowsPerJob; ++f) {
      spec.flows.push_back(
          workload::FlowSpec{d.left[j], d.right[j], bytes / kFlowsPerJob});
    }
    spec.compute_time = workload::compute_time(gpt2);
    spec.noise_stddev_seconds = kComputeNoiseSeconds;
    spec.start_time = sim::milliseconds(40 * j + 5) +
                      static_cast<sim::SimTime>(
                          (sim::splitmix64_uniform(jitter) - 0.5) *
                          static_cast<double>(sim::milliseconds(10)));
    spec.cc = mltcp_reno(mcfg, a, false);
    w->cluster->add_job(spec);
  }
  w->cluster->start_all();
  w->window = sim::seconds(30);
  w->ideal_iteration = gpt2.ideal_iteration_time;
  return w;
}

/// 256 MLTCP-Reno BERT jobs x 16 flows (4,096 flows) on the leaf-spine
/// fabric: the per-packet layers of dumbbell-8 with a large working set (5
/// hops, ECMP, a deep event heap). 16 jobs share each rack's 4 Gbps of
/// uplink, so a job's bytes per iteration are what its communication phase
/// moves at a 1/16 share (full-rate BERT bytes put 4x the uplink's capacity
/// on it; GPT-2's never finish an iteration). Starts are spread over half an
/// iteration, none at t = 0.
std::unique_ptr<World> build_leafspine(const BuildArgs& a) {
  constexpr int kJobs = 256;
  constexpr int kFlowsPerJob = 16;
  constexpr int kJobsPerRack = 16;
  auto w = std::make_unique<World>();
  const Racks racks = make_fabric(*w, a);
  attach_backend(*w, false, a);

  const workload::ModelProfile bert = workload::bert_profile();
  const std::int64_t bytes = workload::comm_bytes(bert, 4e9 / kJobsPerRack);
  core::MltcpConfig mcfg;
  mcfg.tracker.total_bytes = bytes / kFlowsPerJob;
  mcfg.tracker.comp_time = workload::compute_time(bert) / 2;
  std::vector<workload::JobSpec> specs =
      rack_pair_jobs(racks, kJobs, kFlowsPerJob, bytes / kFlowsPerJob);
  for (std::size_t j = 0; j < specs.size(); ++j) {
    specs[j].start_time = bert.ideal_iteration_time / 2 *
                          static_cast<sim::SimTime>(j + 1) / kJobs;
    specs[j].compute_time = workload::compute_time(bert);
    specs[j].cc = mltcp_reno(mcfg, a, false);
    w->cluster->add_job(specs[j]);
  }
  if (a.shards > 1) {
    pdes::PartitionOptions popts;
    popts.shards = a.shards;
    popts.co_locate = pdes::co_locate_senders(specs);
    const pdes::Partition part = pdes::partition_topology(*w->topo, popts);
    w->sim.configure_shards(part.shards);
    w->runner = std::make_unique<pdes::ShardedRunner>(
        w->sim, *w->topo, part, pdes::ShardedRunner::Mode::kThreaded);
    pdes::start_all_sharded(*w->cluster, specs, w->sim, part);
  } else {
    w->cluster->start_all();
  }
  w->window = sim::milliseconds(1200);
  w->ideal_iteration = bert.ideal_iteration_time;
  return w;
}

/// Reno-only Poisson arrivals on the packet path: short flows in slow start,
/// lazily opened connections, losses and RTOs.
std::unique_ptr<World> build_packet_poisson(const BuildArgs& a) {
  auto w = std::make_unique<World>();
  const Racks racks = make_fabric(*w, a);
  attach_backend(*w, false, a);
  install_poisson(*w, racks, sim::seconds(3), a);
  w->window = sim::milliseconds(3500);
  return w;
}

/// The same arrival process on flowsim, ~1M transfers: the solver's arrival
/// and completion path with no packet work at all.
std::unique_ptr<World> build_flowsim_poisson(const BuildArgs& a) {
  auto w = std::make_unique<World>();
  const Racks racks = make_fabric(*w, a);
  attach_backend(*w, true, a);
  install_poisson(*w, racks, sim::seconds(63), a);
  w->window = sim::seconds(68);
  return w;
}

/// 256 MLTCP jobs x 4 flows x 500 KB with 50 ms compute on flowsim (the
/// flowsim_scale training point): the solver through its F(bytes_ratio)
/// weight-refresh path.
std::unique_ptr<World> build_flowsim_training(const BuildArgs& a) {
  constexpr int kJobs = 256;
  constexpr int kFlowsPerJob = 4;
  constexpr std::int64_t kBytesPerFlow = 500'000;
  auto w = std::make_unique<World>();
  const Racks racks = make_fabric(*w, a);
  attach_backend(*w, true, a);
  std::vector<workload::JobSpec> specs =
      rack_pair_jobs(racks, kJobs, kFlowsPerJob, kBytesPerFlow);
  for (std::size_t j = 0; j < specs.size(); ++j) {
    specs[j].compute_time = sim::milliseconds(50);
    specs[j].start_time = sim::milliseconds(5 * static_cast<int>(j % 64));
    specs[j].cc = mltcp_reno(core::MltcpConfig{}, a, true);
    w->cluster->add_job(specs[j]);
  }
  w->cluster->start_all();
  w->window = sim::seconds(78);  // About 1,000 iterations per job.
  // Compute plus one flow's bytes at the 1 Gbps fabric rate.
  w->ideal_iteration = sim::milliseconds(50) +
                       sim::transmission_time(kBytesPerFlow, 1e9);
  return w;
}

struct Workload {
  const char* name;
  std::unique_ptr<World> (*build)(const BuildArgs&);
};

constexpr Workload kWorkloads[] = {
    {"dumbbell-8", build_dumbbell},
    {"leafspine-256", build_leafspine},
    {"packet-poisson", build_packet_poisson},
    {"flowsim-poisson-1m", build_flowsim_poisson},
    {"flowsim-training", build_flowsim_training},
};

// ---------------------------------------------------------------- results

/// FNV-1a over the run's model outputs: every job's iteration records, every
/// link / host / switch counter and every transfer's completion time.
std::uint64_t state_digest(const World& w) {
  std::uint64_t h = 1469598103934665603ull;
  const auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& job : w.cluster->jobs()) {
    add(static_cast<std::uint64_t>(job->completed_iterations()));
    for (const workload::IterationRecord& r : job->iterations()) {
      add(static_cast<std::uint64_t>(r.comm_start));
      add(static_cast<std::uint64_t>(r.comm_end));
      add(static_cast<std::uint64_t>(r.iter_end));
    }
  }
  for (const auto& link : w.topo->links()) {
    add(static_cast<std::uint64_t>(link->bytes_transmitted()));
    add(static_cast<std::uint64_t>(link->packets_transmitted()));
    add(static_cast<std::uint64_t>(link->fault_drops()));
  }
  for (const net::Host* host : w.topo->hosts()) {
    add(static_cast<std::uint64_t>(host->delivered_packets()));
  }
  for (const net::Switch* sw : w.topo->switches()) {
    add(static_cast<std::uint64_t>(sw->forwarded_packets()));
  }
  if (w.source != nullptr) {
    for (const traffic::FctRecord& r : w.source->records()) {
      add(static_cast<std::uint64_t>(r.arrival));
      add(static_cast<std::uint64_t>(r.completed));
      add(static_cast<std::uint64_t>(r.bytes));
    }
  }
  return h;
}

/// Minimal JSON object writer for the one line this program prints.
class JsonLine {
 public:
  void num(const char* key, double v) { field(key, fmt("%.9g", v)); }
  void count(const char* key, std::int64_t v) {
    field(key, fmt("%" PRId64, v));
  }
  void str(const char* key, const std::string& v) {
    field(key, "\"" + v + "\"");
  }
  void list(const char* key, const std::vector<double>& xs) {
    std::string s = "[";
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i > 0) s += ',';
      s += fmt("%.9g", xs[i]);
    }
    field(key, s + "]");
  }
  void names(const char* key, const std::vector<std::string>& xs) {
    std::string s = "[";
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i > 0) s += ',';
      s += "\"" + xs[i] + "\"";
    }
    field(key, s + "]");
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  template <typename T>
  static std::string fmt(const char* f, T v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, f, v);
    return buf;
  }
  void field(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + std::string(key) + "\":" + value;
  }
  std::string body_;
};

/// Deterministic work counters and the model-output checks of one run.
void report_model(const World& w, JsonLine& out) {
  std::vector<std::string> failed;

  // Training jobs: every job completed an iteration (a truncated window
  // would price nothing per iteration), and each flow's completed messages
  // match its job's iterations.
  std::int64_t iterations = 0;
  std::vector<double> iteration_s;
  // Each flow completes one message per iteration, plus possibly the
  // current iteration's before its job finishes the iteration.
  std::int64_t min_messages = 0;
  std::int64_t max_messages = 0;
  for (const auto& job : w.cluster->jobs()) {
    const std::int64_t done = job->completed_iterations();
    const auto flows = static_cast<std::int64_t>(job->flows().size());
    iterations += done;
    min_messages += done * flows;
    max_messages += (done + 1) * flows;
    if (done < 1) failed.push_back("job_truncated:" + job->name());
    for (const double t : job->iteration_times_seconds()) {
      iteration_s.push_back(t);
    }
    for (const auto& binding : job->flows()) {
      if (const tcp::TcpFlow* flow = binding.flow->tcp()) {
        const std::int64_t mc = flow->sender().stats().messages_completed;
        if (mc < done || mc > done + 1) {
          failed.push_back("flow_messages:" + job->name());
        }
      }
    }
  }

  // Transfers: Poisson arrivals (every generated arrival posted, every
  // posted one either completed or open), or the training jobs' messages.
  std::int64_t posted = 0;
  std::int64_t completed = 0;
  if (w.source != nullptr) {
    const traffic::TrafficSource& src = *w.source;
    posted = static_cast<std::int64_t>(src.posted());
    completed = static_cast<std::int64_t>(src.completed());
    std::int64_t records_done = 0;
    for (const traffic::FctRecord& r : src.records()) records_done += r.done();
    if (posted != static_cast<std::int64_t>(w.arrivals) ||
        static_cast<std::int64_t>(src.records().size()) != posted ||
        records_done != completed) {
      failed.push_back("transfers_conserved");
    }
    out.num("fct_p99_ms",
            1e3 * analysis::fct_stats(src.completed_fcts_seconds(), src.open())
                      .p99_s);
  }
  if (w.fluid != nullptr) {
    const flowsim::FlowSimStats& s = w.fluid->stats();
    if (w.source == nullptr) {
      completed = s.messages_completed;
      // A training flow has at most one message open.
      if (s.messages_posted > max_messages) failed.push_back("open_messages");
    } else if (s.messages_posted != posted ||
               s.messages_completed != completed) {
      failed.push_back("flowsim_messages");
    }
    out.count("flowsim.recomputes", s.recomputes);
    out.count("flowsim.waterfill_channels", s.waterfill_channels);
    out.count("flowsim.frozen_skips", s.frozen_skips);
    out.count("flowsim.heap_updates", s.heap_updates);
    out.count("flowsim.stalls", s.stalls);
  }
  if (w.packet != nullptr) {
    tcp::SenderStats sum;
    for (const auto& flow : w.packet->flows()) {
      const tcp::SenderStats& s = flow->sender().stats();
      sum.data_packets_sent += s.data_packets_sent;
      sum.retransmissions += s.retransmissions;
      sum.timeouts += s.timeouts;
      sum.segments_acked += s.segments_acked;
      sum.messages_completed += s.messages_completed;
    }
    if (w.source == nullptr) {
      completed = sum.messages_completed;
    } else if (sum.messages_completed != completed) {
      failed.push_back("sender_messages");
    }
    out.count("tcp.flows", static_cast<std::int64_t>(w.packet->flows().size()));
    out.count("tcp.sender.data_packets", sum.data_packets_sent);
    out.count("tcp.sender.retransmissions", sum.retransmissions);
    out.count("tcp.sender.timeouts", sum.timeouts);
    out.count("tcp.sender.segments_acked", sum.segments_acked);

    std::int64_t link_packets = 0;
    std::int64_t drops = 0;
    std::int64_t max_backlog = 0;
    for (const auto& link : w.topo->links()) {
      link_packets += link->packets_transmitted();
      // The traced run's queues are decorators with empty statistics; the
      // untraced run reports these.
      const net::QueueStats& q = link->queue().stats();
      drops += q.dropped_packets;
      max_backlog = std::max(max_backlog, q.max_backlog_bytes);
    }
    std::int64_t forwarded = 0;
    for (const net::Switch* sw : w.topo->switches()) {
      forwarded += sw->forwarded_packets();
    }
    out.count("net.link.packets", link_packets);
    out.count("net.switch.forwarded", forwarded);
    out.count("net.queue.drops", drops);
    out.num("net.queue.max_backlog_kb", static_cast<double>(max_backlog) / 1e3);
  }
  if (w.source == nullptr &&
      (completed < min_messages || completed > max_messages)) {
    failed.push_back("job_messages");
  }
  if (completed < 1) failed.push_back("no_transfers");

  out.count("iterations", iterations);
  out.count("transfers", completed);
  if (w.ideal_iteration > 0) {
    out.num("iter_slowdown", analysis::percentile(iteration_s, 50.0) /
                                 sim::to_seconds(w.ideal_iteration));
  }
  out.names("failed_checks", failed);
}

void report_spans(const SpanTracer& tracer, JsonLine& out) {
  const perf::SpanCost cost = perf::measure_span_cost();
  out.num("trace.clock_ns", cost.clock_ns);
  out.num("trace.span_ns", cost.span_ns);
  out.count("trace.spans", tracer.spans());
  out.num("trace.top_level_ns", tracer.top_level_ns(cost));
  for (int i = 0; i < static_cast<int>(perf::Layer::kCount); ++i) {
    const auto layer = static_cast<perf::Layer>(i);
    const perf::LayerTotals t = tracer.totals(layer, cost);
    const std::string name = perf::layer_name(layer);
    out.count((name + ".calls").c_str(), t.calls);
    out.num((name + ".self_ns").c_str(), t.self_ns);
  }
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kilobytes.
}

int usage() {
  std::fprintf(stderr,
               "usage: mltcp_perf --workload=NAME --seed=N [--trace] "
               "[--trace-out=PATH] [--shards=N]\nworkloads:");
  for (const Workload& wl : kWorkloads) std::fprintf(stderr, " %s", wl.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::string trace_out;
  bool trace = false;
  BuildArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--workload=", 11) == 0) {
      name = arg + 11;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      char* end = nullptr;
      args.seed = std::strtoull(arg + 7, &end, 10);
      if (end == arg + 7 || *end != '\0') return usage();
    } else if (std::strcmp(arg, "--trace") == 0) {
      trace = true;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_out = arg + 12;
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      args.shards = std::max(1, std::atoi(arg + 9));
    } else {
      return usage();
    }
  }
  const Workload* wl = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (name == candidate.name) wl = &candidate;
  }
  if (wl == nullptr) return usage();
  if (args.shards > 1 && (trace || name != "leafspine-256")) {
    std::fprintf(stderr, "--shards runs leafspine-256 untraced only\n");
    return 2;
  }

  std::unique_ptr<SpanTracer> tracer;
  if (trace) {
    tracer = std::make_unique<SpanTracer>(kSpanRecords);
    args.tracer = tracer.get();
  }

  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    const auto t0 = std::chrono::steady_clock::now();
    world = wl->build(args);
    setup_s.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }
  World& w = *world;

  std::vector<double> slice_ms;
  slice_ms.reserve(kSlices);
  const auto run_start = std::chrono::steady_clock::now();
  auto last = run_start;
  for (int i = 1; i <= kSlices; ++i) {
    w.run_until(w.window * i / kSlices);
    const auto now = std::chrono::steady_clock::now();
    slice_ms.push_back(std::chrono::duration<double, std::milli>(now - last)
                           .count());
    last = now;
  }
  const double run_s = std::chrono::duration<double>(last - run_start).count();

  JsonLine out;
  out.str("workload", wl->name);
  out.count("traced", trace ? 1 : 0);
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016" PRIx64, state_digest(w));
  out.str("digest", digest);
  out.list("setup_s", setup_s);
  out.num("run_s", run_s);
  out.num("sim_s", sim::to_seconds(w.window));
  out.list("slice_ms", slice_ms);
  out.num("peak_rss_mb", peak_rss_mb());
  out.count("events", static_cast<std::int64_t>(w.sim.events_executed()));
  out.num("traffic.generate_ms", w.generate_ms);
  report_model(w, out);
  if (tracer != nullptr) {
    report_spans(*tracer, out);
    if (!trace_out.empty() && !tracer->write_chrome_trace(trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }
  out.print();
  return 0;
}
