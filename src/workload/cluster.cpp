#include "workload/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace mltcp::workload {

namespace {

/// Packet-backend channel: a thin adapter over one TcpFlow. The virtual
/// hop is the whole cost of backend neutrality on the packet path — the
/// message itself still goes straight to the sender.
class TcpChannel final : public Channel {
 public:
  explicit TcpChannel(tcp::TcpFlow* flow) : flow_(flow) {}

  void send_message(std::int64_t bytes, Completion on_complete) override {
    flow_->send_message(bytes, std::move(on_complete));
  }

  net::FlowId id() const override { return flow_->id(); }

  tcp::TcpFlow* tcp() override { return flow_; }

 private:
  tcp::TcpFlow* flow_;
};

}  // namespace

Channel* PacketBackend::create_channel(const ChannelSpec& spec) {
  flows_.push_back(std::make_unique<tcp::TcpFlow>(
      sim_, *spec.src, *spec.dst, spec.id, spec.cc(), spec.sender,
      spec.receiver));
  channels_.push_back(std::make_unique<TcpChannel>(flows_.back().get()));
  return channels_.back().get();
}

Cluster::Cluster(sim::Simulator& simulator, std::uint64_t seed)
    : sim_(simulator), rng_(seed), packet_(simulator) {}

void Cluster::set_backend(Backend* backend) {
  assert(next_flow_id_ == 1 &&
         "install the backend before creating any channels");
  backend_ = backend != nullptr ? backend : &packet_;
}

Channel* Cluster::add_channel(const FlowSpec& fs, const tcp::CcFactory& cc,
                              const tcp::SenderConfig& sender,
                              const tcp::ReceiverConfig& receiver) {
  assert(cc != nullptr && fs.src != nullptr && fs.dst != nullptr);
  return backend_->create_channel(
      ChannelSpec{fs.src, fs.dst, next_flow_id_++, cc, sender, receiver});
}

Job* Cluster::add_job(const JobSpec& spec) {
  assert(spec.cc != nullptr && "JobSpec.cc (congestion control) must be set");
  assert(!spec.flows.empty());
  // Every chunk of an iteration must carry at least one byte. Checked before
  // any channel opens, so a rejected spec takes no flow id.
  const int chunks = std::max(spec.comm_chunks, 1);
  for (std::size_t i = 0; i < spec.flows.size(); ++i) {
    const std::int64_t bytes = spec.flows[i].bytes_per_iteration;
    if (bytes < chunks) {
      throw std::invalid_argument(
          "job '" + spec.name + "' flow " + std::to_string(i) + ": " +
          std::to_string(bytes) + " bytes per iteration cannot fill " +
          std::to_string(chunks) + " comm chunks");
    }
  }

  std::vector<Job::FlowBinding> bindings;
  std::vector<tcp::TcpFlow*> raw_flows;
  bindings.reserve(spec.flows.size());
  for (const FlowSpec& fs : spec.flows) {
    assert(fs.src != nullptr && fs.dst != nullptr);
    Channel* channel = add_channel(fs, spec.cc, spec.sender, spec.receiver);
    bindings.push_back(Job::FlowBinding{channel, fs.bytes_per_iteration});
    if (tcp::TcpFlow* flow = channel->tcp()) raw_flows.push_back(flow);
  }

  auto job = std::make_unique<Job>(sim_, static_cast<const JobConfig&>(spec),
                                   std::move(bindings), rng_.fork());
  Job* ptr = job.get();
  jobs_.push_back(std::move(job));
  flows_by_job_.push_back(std::move(raw_flows));
  return ptr;
}

void Cluster::start_all() {
  for (auto& job : jobs_) job->start();
}

Job* Cluster::find_job(const std::string& name) const {
  for (const auto& job : jobs_) {
    if (job->name() == name) return job.get();
  }
  return nullptr;
}

}  // namespace mltcp::workload
