#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tcp/cong_control.hpp"
#include "tcp/flow.hpp"
#include "workload/backend.hpp"
#include "workload/collective.hpp"
#include "workload/job.hpp"

namespace mltcp::workload {

/// Everything needed to instantiate one job on the cluster: the job's own
/// JobConfig plus the flows that carry its communication.
struct JobSpec : JobConfig {
  std::vector<FlowSpec> flows;
  /// Congestion controller per flow. Must be set.
  tcp::CcFactory cc;
  tcp::SenderConfig sender;
  tcp::ReceiverConfig receiver;
};

/// The packet path: one TcpFlow per channel, owned here with its Channel
/// wrapper. Cluster's default backend.
class PacketBackend final : public Backend {
 public:
  explicit PacketBackend(sim::Simulator& simulator) : sim_(simulator) {}

  Channel* create_channel(const ChannelSpec& spec) override;
  const char* name() const override { return "packet"; }

 private:
  sim::Simulator& sim_;
  std::vector<std::unique_ptr<tcp::TcpFlow>> flows_;
  std::vector<std::unique_ptr<Channel>> channels_;
};

/// Owns the Job state machines of one experiment and allocates globally
/// unique flow ids for their channels. The topology outlives the cluster.
/// Channels come from the cluster's own PacketBackend unless set_backend()
/// installs another simulation backend (src/flowsim); the workload state
/// machines are the same either way.
class Cluster {
 public:
  Cluster(sim::Simulator& simulator, std::uint64_t seed = 1);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Installs a non-owning channel backend (nullptr restores the built-in
  /// packet backend). Call before any channels exist: mixing backends
  /// within one run is not a supported configuration.
  void set_backend(Backend* backend);

  /// Creates channels and the job state machine. The job is not started.
  /// Safe mid-run: scenario-driven job arrivals call this after start_all()
  /// and then start() the returned job themselves. Throws
  /// std::invalid_argument, before opening any channel, when a flow's
  /// bytes_per_iteration is below max(comm_chunks, 1).
  Job* add_job(const JobSpec& spec);

  /// Creates a standalone channel (no job state machine) with a
  /// cluster-unique flow id on the active backend. Traffic sources and
  /// scenario-driven background/legacy traffic post messages on it
  /// directly; the channel lives as long as its backend.
  Channel* add_channel(const FlowSpec& fs, const tcp::CcFactory& cc,
                       const tcp::SenderConfig& sender = {},
                       const tcp::ReceiverConfig& receiver = {});

  /// Starts every job added so far.
  void start_all();

  /// Job lookup by spec name (linear scan; nullptr if absent). Scenario
  /// scripts reference jobs by name, resolved at apply time.
  Job* find_job(const std::string& name) const;

  const std::vector<std::unique_ptr<Job>>& jobs() const { return jobs_; }
  Job* job(std::size_t i) const { return jobs_.at(i).get(); }
  std::size_t job_count() const { return jobs_.size(); }

  /// TCP flows created for job `i`, in FlowSpec order. Packet backend only:
  /// empty vectors under a flow-level backend (whose channels have no
  /// TcpFlow). Use job(i)->flows() for backend-neutral channel access.
  const std::vector<tcp::TcpFlow*>& flows_of(std::size_t i) const {
    return flows_by_job_.at(i);
  }

 private:
  sim::Simulator& sim_;
  sim::Rng rng_;
  net::FlowId next_flow_id_ = 1;
  PacketBackend packet_;
  Backend* backend_ = &packet_;  ///< Non-owning unless it is packet_.
  std::vector<std::vector<tcp::TcpFlow*>> flows_by_job_;
  std::vector<std::unique_ptr<Job>> jobs_;
};

}  // namespace mltcp::workload
