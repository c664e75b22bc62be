#include "bench_common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "workload/collective.hpp"

namespace mltcp::bench {

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::unique_ptr<Experiment> make_experiment(const ScenarioConfig& cfg) {
  auto exp = std::make_unique<Experiment>();
  exp->scenario = cfg;
  net::DumbbellConfig dc;
  dc.hosts_per_side = cfg.hosts_per_side;
  dc.host_rate_bps = cfg.host_rate_bps;
  dc.bottleneck_rate_bps = cfg.bottleneck_rate_bps;
  dc.host_delay = cfg.host_delay;
  dc.bottleneck_delay = cfg.bottleneck_delay;
  dc.bottleneck_queue = cfg.bottleneck_queue;
  exp->dumbbell = net::make_dumbbell(exp->sim, dc);
  exp->cluster = std::make_unique<workload::Cluster>(exp->sim);
  return exp;
}

workload::Job* add_profile_job(Experiment& exp,
                               const workload::ModelProfile& profile,
                               int host_index, const tcp::CcFactory& cc,
                               const ProfileJobOptions& opts) {
  workload::JobSpec spec;
  spec.name = profile.model_name + "@" + std::to_string(host_index);
  const std::int64_t total =
      workload::comm_bytes(profile, exp.scenario.bottleneck_rate_bps);
  const int n = std::max(opts.num_flows, 1);
  for (int f = 0; f < n; ++f) {
    spec.flows.push_back(workload::FlowSpec{
        exp.dumbbell.left.at(host_index), exp.dumbbell.right.at(host_index),
        total / n});
  }
  spec.compute_time = workload::compute_time(profile) + opts.extra_compute;
  spec.noise_stddev_seconds = opts.noise_stddev_seconds;
  spec.start_time = opts.start_time;
  spec.max_iterations = opts.max_iterations;
  spec.gate_period = opts.gate_period;
  spec.cc = cc;
  spec.sender.pfabric_priority = opts.pfabric_priority;
  return exp.cluster->add_job(spec);
}

core::MltcpConfig mltcp_config_for(const workload::ModelProfile& profile,
                                   double bottleneck_rate_bps,
                                   int num_flows) {
  core::MltcpConfig cfg;
  cfg.tracker.total_bytes =
      workload::comm_bytes(profile, bottleneck_rate_bps) /
      std::max(num_flows, 1);
  cfg.tracker.comp_time = workload::compute_time(profile) / 2;
  return cfg;
}

sim::RateBinner* bottleneck_binner_for_flow(Experiment& exp, net::FlowId flow,
                                            sim::SimTime bin_width) {
  exp.binners.push_back(std::make_unique<sim::RateBinner>(bin_width));
  sim::RateBinner* binner = exp.binners.back().get();
  exp.bottleneck().add_tx_observer(
      [binner, flow](const net::Packet& pkt, sim::SimTime now) {
        if (pkt.flow == flow && pkt.type == net::PacketType::kData) {
          binner->add(now, pkt.size_bytes);
        }
      });
  return binner;
}

sim::RateBinner* bottleneck_binner_for_job(Experiment& exp,
                                           std::size_t job_index,
                                           sim::SimTime bin_width) {
  exp.binners.push_back(std::make_unique<sim::RateBinner>(bin_width));
  sim::RateBinner* binner = exp.binners.back().get();
  std::vector<net::FlowId> ids;
  for (const tcp::TcpFlow* flow : exp.cluster->flows_of(job_index)) {
    ids.push_back(flow->id());
  }
  exp.bottleneck().add_tx_observer(
      [binner, ids](const net::Packet& pkt, sim::SimTime now) {
        if (pkt.type != net::PacketType::kData) return;
        for (const net::FlowId id : ids) {
          if (pkt.flow == id) {
            binner->add(now, pkt.size_bytes);
            return;
          }
        }
      });
  return binner;
}

std::vector<CcVariant> cc_family(const core::MltcpConfig& cfg) {
  return {{"reno", core::reno_factory(), false},
          {"mltcp-reno", core::mltcp_reno_factory(cfg), false},
          {"cubic", core::cubic_factory(), false},
          {"mltcp-cubic", core::mltcp_cubic_factory(cfg), false},
          {"dctcp", core::dctcp_factory(), true},
          {"mltcp-dctcp", core::mltcp_dctcp_factory(cfg), true},
          {"swift", core::swift_factory(), false},
          {"mltcp-swift", core::mltcp_swift_factory(cfg), false},
          {"bbr", core::bbr_factory(), false},
          {"mltcp-bbr", core::mltcp_bbr_factory(cfg), false},
          {"gemini", core::gemini_factory(), true},
          {"mltcp-gemini", core::mltcp_gemini_factory(cfg), true}};
}

void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

void exit_if_truncated(const analysis::DumbbellRun& run,
                       const std::string& what) {
  if (!run.truncated) return;
  std::size_t least = SIZE_MAX;
  for (const auto& records : run.iterations) {
    least = std::min(least, records.size());
  }
  std::fprintf(stderr,
               "FATAL: flowsim run truncated (%s): a job completed only %zu "
               "iterations before the time budget ran out\n",
               what.c_str(), least);
  std::exit(1);
}

void print_series(const std::string& name, const std::vector<double>& xs) {
  std::printf("%s:", name.c_str());
  for (double x : xs) std::printf(" %.4g", x);
  std::printf("\n");
}

void print_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::printf("%s%s", cells[i].c_str(), i + 1 < cells.size() ? " | " : "\n");
  }
}

bool quick_flag(int argc, char** argv) {
  const std::string name = std::filesystem::path(argv[0]).filename();
  bool quick = false;
  bool bad = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", name.c_str(),
                   argv[i]);
      bad = true;
    }
  }
  if (bad) {
    std::fprintf(stderr, "usage: %s [--quick]\n", name.c_str());
    std::exit(2);
  }
  return quick;
}

runner::CampaignOptions campaign_options() {
  return runner::options_from_env();
}

void write_sink(const runner::CsvSink& sink, const std::string& name) {
  sink.write(results_dir() + "/" + name + ".csv");
}

std::string results_dir() {
  const char* env = std::getenv("MLTCP_RESULTS_DIR");
  const std::string dir = env != nullptr ? env : "results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort
  return dir;
}

std::unique_ptr<sim::CsvWriter> open_csv(
    const std::string& name, const std::vector<std::string>& header) {
  return std::make_unique<sim::CsvWriter>(results_dir() + "/" + name + ".csv",
                                          header);
}

}  // namespace mltcp::bench
