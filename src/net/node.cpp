#include "net/node.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "telemetry/tracer.hpp"

namespace mltcp::net {

namespace {

/// One splitmix64 step from the flow id: a full-avalanche mix, so
/// consecutive ids (the workload assigns them sequentially) spread evenly
/// across an ECMP set. Pure function of the id — deterministic across runs,
/// machines and thread counts.
std::uint32_t ecmp_hash(FlowId flow) {
  std::uint64_t state = static_cast<std::uint32_t>(flow);
  return static_cast<std::uint32_t>(sim::splitmix64(state));
}

}  // namespace

void Switch::receive(const Packet& pkt) {
  const auto idx = static_cast<std::uint32_t>(pkt.dst);
  if (idx < routes_.size()) {
    const RouteEntry e = routes_[idx];
    if (e.count != 0) {
      Link* egress =
          pool_[e.base + (e.count == 1 ? 0u : ecmp_hash(pkt.flow) % e.count)];
      ++forwarded_;
      egress->send(pkt);
      return;
    }
  }
  ++routeless_drops_;
  trace_routeless_drop(pkt);
}

void Switch::set_route(NodeId dst, Link* egress) {
  assert(egress != nullptr);
  set_routes(dst, std::vector<Link*>{egress});
}

void Switch::set_routes(NodeId dst, const std::vector<Link*>& egresses) {
  assert(dst >= 0 && !egresses.empty());
  const auto idx = static_cast<std::size_t>(dst);
  if (idx >= routes_.size()) routes_.resize(idx + 1);
  // Re-pointing a destination abandons its old pool span; the pool is
  // rebuilt from scratch on every build_routes() pass (clear_routes), so
  // waste is bounded to manual set_route churn between passes.
  routes_[idx] = RouteEntry{static_cast<std::uint32_t>(pool_.size()),
                           static_cast<std::uint32_t>(egresses.size())};
  pool_.insert(pool_.end(), egresses.begin(), egresses.end());
}

void Switch::clear_routes(std::size_t n_nodes) {
  routes_.assign(n_nodes, RouteEntry{});
  pool_.clear();
}

Link* Switch::route(NodeId dst) const {
  const auto idx = static_cast<std::uint32_t>(dst);
  if (idx >= routes_.size() || routes_[idx].count == 0) return nullptr;
  return pool_[routes_[idx].base];
}

Link* Switch::route_for_flow(NodeId dst, FlowId flow) const {
  const auto idx = static_cast<std::uint32_t>(dst);
  if (idx >= routes_.size()) return nullptr;
  const RouteEntry e = routes_[idx];
  if (e.count == 0) return nullptr;
  return pool_[e.base + (e.count == 1 ? 0u : ecmp_hash(flow) % e.count)];
}

std::size_t Switch::route_width(NodeId dst) const {
  const auto idx = static_cast<std::uint32_t>(dst);
  return idx < routes_.size() ? routes_[idx].count : 0;
}

void Switch::trace_routeless_drop(const Packet& pkt) const {
  if (trace_sim_ == nullptr) return;
  if (auto* t = telemetry::tracer_for(*trace_sim_,
                                      telemetry::Category::kQueue)) {
    t->instant(telemetry::Category::kQueue, "routeless_drop",
               trace_sim_->now(), telemetry::track_switch(id()), "flow",
               static_cast<double>(pkt.flow), "dst",
               static_cast<double>(pkt.dst));
  }
}

FlowDemux::Slot& FlowDemux::grow_to(FlowId flow) {
  assert(flow >= 0);
  const auto idx = static_cast<std::size_t>(flow);
  while (idx >= slot_capacity()) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return *find(flow);
}

FlowDemux::Endpoint* Host::endpoint(FlowId flow) {
  FlowDemux::Slot* slot = demux_.find(flow);
  if (slot == nullptr) return nullptr;
  for (FlowDemux::Endpoint& e : slot->ends) {
    if (e.host == this) return &e;
  }
  return nullptr;
}

void Host::receive(const Packet& pkt) {
  if (FlowDemux::Endpoint* e = endpoint(pkt.flow)) {
    ++delivered_;
    e->handler(pkt);
    return;
  }
  ++unclaimed_;
}

void Host::send(const Packet& pkt) {
  assert(uplink_ != nullptr && "host has no uplink");
  Packet out = pkt;
  out.src = id();
  uplink_->send(out);
}

Host::FlowHandle Host::register_flow(FlowId flow, PacketHandler handler) {
  const auto reject = [&](const std::string& what) {
    throw std::invalid_argument("host " + name() + ": flow " +
                                std::to_string(flow) + " " + what);
  };
  if (flow < 0) reject("is negative");
  if (!handler) reject("has an empty handler");
  FlowDemux::Slot& slot = demux_.grow_to(flow);
  // Replace this host's live registration, else take a free endpoint.
  FlowDemux::Endpoint* e = endpoint(flow);
  if (e == nullptr && slot.ends[0].host == nullptr) e = &slot.ends[0];
  if (e == nullptr && slot.ends[1].host == nullptr) e = &slot.ends[1];
  if (e == nullptr) {
    reject("already has two live endpoints, on hosts " +
           slot.ends[0].host->name() + " and " + slot.ends[1].host->name());
  }
  e->host = this;
  e->handler = std::move(handler);
  e->gen = std::max(slot.ends[0].gen, slot.ends[1].gen) + 1;
  return FlowHandle{flow, e->gen};
}

void Host::unregister_flow(FlowId flow) {
  if (const FlowDemux::Endpoint* e = endpoint(flow)) {
    unregister_flow(FlowHandle{flow, e->gen});
  }
}

void Host::unregister_flow(const FlowHandle& handle) {
  // Only the live registration may unregister: a handle from before the id
  // was reused has a stale generation and must not tear down the new flow.
  FlowDemux::Endpoint* e = endpoint(handle.flow);
  if (e == nullptr || e->gen != handle.gen) return;
  e->host = nullptr;
  e->handler = nullptr;
}

}  // namespace mltcp::net
