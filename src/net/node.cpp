#include "net/node.hpp"

#include <cassert>

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

void Host::receive(const Packet& pkt) {
  const auto idx = static_cast<std::uint32_t>(pkt.flow);
  if (idx < handlers_.size() && handlers_[idx].handler) {
    ++delivered_;
    handlers_[idx].handler(pkt);
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
  assert(flow >= 0 && "flow ids must be dense non-negative indices");
  const auto idx = static_cast<std::size_t>(flow);
  if (idx >= handlers_.size()) handlers_.resize(idx + 1);
  HandlerSlot& slot = handlers_[idx];
  slot.handler = std::move(handler);
  ++slot.gen;
  return FlowHandle{flow, slot.gen};
}

void Host::unregister_flow(FlowId flow) {
  const auto idx = static_cast<std::uint32_t>(flow);
  if (idx >= handlers_.size() || !handlers_[idx].handler) return;
  handlers_[idx].handler = nullptr;
  ++handlers_[idx].gen;
}

void Host::unregister_flow(const FlowHandle& handle) {
  const auto idx = static_cast<std::uint32_t>(handle.flow);
  if (idx >= handlers_.size()) return;
  HandlerSlot& slot = handlers_[idx];
  // Only the live registration may unregister: a handle from before the id
  // was reused has a stale generation and must not tear down the new flow.
  if (slot.gen != handle.gen || !slot.handler) return;
  slot.handler = nullptr;
  ++slot.gen;
}

}  // namespace mltcp::net
