#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"

namespace mltcp::sim {
class Simulator;
}

namespace mltcp::net {

/// A device in the topology that can receive packets.
class Node {
 public:
  Node(NodeId id, std::string name) : id_(id), name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Packets travel the hop chain (deliver -> receive -> send -> enqueue) by
  /// reference; the only copies are at rest points (queue storage, the
  /// transmit slot, the in-flight delivery closure).
  virtual void receive(const Packet& pkt) = 0;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

 private:
  NodeId id_;
  std::string name_;
};

/// Output-queued switch with a static forwarding table computed by the
/// topology's route builder. Node ids are dense (assigned by the topology),
/// so the table is a flat vector indexed by destination id: each entry is a
/// span into a shared egress pool, holding one link on single-path routes
/// and the full equal-cost set where ECMP applies. The hot path is one
/// bounds check, one entry load and (for ECMP) one flow-hash — no hashing
/// or pointer chasing on single-path forwarding.
class Switch : public Node {
 public:
  using Node::Node;

  void receive(const Packet& pkt) override;

  /// Installs `egress` as the only route towards `dst` (replacing any
  /// previous set).
  void set_route(NodeId dst, Link* egress);

  /// Installs an equal-cost set: flows hash across `egresses`
  /// deterministically (pure function of the flow id — stable across runs,
  /// machines and MLTCP_THREADS values). Order matters: candidate order is
  /// part of the routing contract.
  void set_routes(NodeId dst, const std::vector<Link*>& egresses);

  /// Drops all installed routes and pre-sizes the table for ids < n_nodes.
  /// Called by Topology::build_routes() before repopulating.
  void clear_routes(std::size_t n_nodes);

  /// Primary (first) egress towards `dst`, or nullptr when unreachable.
  Link* route(NodeId dst) const;
  /// The egress the ECMP hash selects for `flow`, or nullptr.
  Link* route_for_flow(NodeId dst, FlowId flow) const;
  /// Number of equal-cost egresses installed towards `dst` (0 = no route).
  std::size_t route_width(NodeId dst) const;

  /// Enables tracing of routeless drops (Category::kQueue, on this
  /// switch's track). Set by the owning topology.
  void set_trace_context(sim::Simulator* sim) { trace_sim_ = sim; }

  std::int64_t forwarded_packets() const { return forwarded_; }
  std::int64_t routeless_drops() const { return routeless_drops_; }

 private:
  /// Span into pool_: `count` egresses starting at `base`; count == 0 means
  /// no route.
  struct RouteEntry {
    std::uint32_t base = 0;
    std::uint32_t count = 0;
  };

  void trace_routeless_drop(const Packet& pkt) const;

  std::vector<RouteEntry> routes_;  ///< Indexed by destination NodeId.
  std::vector<Link*> pool_;         ///< Shared egress storage for all spans.
  sim::Simulator* trace_sim_ = nullptr;
  std::int64_t forwarded_ = 0;
  std::int64_t routeless_drops_ = 0;
};

/// End host: demultiplexes received packets to per-flow handlers and sends
/// all outbound traffic over its single uplink. Flow ids are dense (the
/// workload layer assigns them sequentially), so demux is a flat table
/// indexed by flow id; each slot carries a generation counter so a stale
/// handle from a destroyed flow can never unregister a reused id.
class Host : public Node {
 public:
  using PacketHandler = std::function<void(const Packet&)>;

  /// Identifies one registration: flow id plus the slot generation at
  /// registration time. Default-constructed handles are inert.
  struct FlowHandle {
    FlowId flow = kInvalidFlow;
    std::uint32_t gen = 0;
  };

  using Node::Node;

  void receive(const Packet& pkt) override;

  /// Sends a packet out the uplink. The packet's `src` is stamped with this
  /// host's id.
  void send(const Packet& pkt);

  void set_uplink(Link* uplink) { uplink_ = uplink; }
  Link* uplink() const { return uplink_; }

  /// Registers the receive handler for one flow and returns a handle for
  /// generation-checked unregistration. At most one handler per flow; data
  /// and ACKs of a flow arrive at different hosts so a single table
  /// suffices. Registering over a live handler replaces it (and invalidates
  /// handles to the previous registration).
  FlowHandle register_flow(FlowId flow, PacketHandler handler);

  /// Unconditionally removes the handler for `flow` (if any).
  void unregister_flow(FlowId flow);
  /// Removes the handler only if `handle` still names the live
  /// registration; a stale handle (the id was reused since) is a no-op.
  void unregister_flow(const FlowHandle& handle);

  std::int64_t delivered_packets() const { return delivered_; }
  std::int64_t unclaimed_packets() const { return unclaimed_; }

 private:
  struct HandlerSlot {
    PacketHandler handler;     ///< Empty = unregistered.
    std::uint32_t gen = 0;     ///< Bumped on every register/unregister.
  };

  Link* uplink_ = nullptr;
  std::vector<HandlerSlot> handlers_;  ///< Indexed by FlowId.
  std::int64_t delivered_ = 0;
  std::int64_t unclaimed_ = 0;
};

}  // namespace mltcp::net
