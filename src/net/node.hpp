#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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

class Host;

/// The flow-handler table of one topology, shared by all of its hosts. Flow
/// ids are dense (the workload layer assigns them sequentially), so slot
/// `flow` is one index away and holds the flow's two endpoints: the
/// sender's host, which gets the ACKs, and the receiver's host, which gets
/// the data. Memory is O(flows), not O(hosts x largest flow id). Slots live
/// in fixed-size chunks, so growing the table never moves one: a handler
/// may register flows while it runs. Shard threads only read the table;
/// registrations happen when no shard runs (setup, scenario barriers, lane
/// pre-creation).
class FlowDemux {
 public:
  using PacketHandler = std::function<void(const Packet&)>;

  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  FlowDemux() = default;
  // Hosts keep a reference to their table.
  FlowDemux(const FlowDemux&) = delete;
  FlowDemux& operator=(const FlowDemux&) = delete;

  /// One host's registration for a flow; `host == nullptr` marks a free
  /// endpoint. `gen` is the registration's generation: each registration
  /// takes one above both endpoints' current values, so no handle issued
  /// for this flow id earlier can match it.
  struct Endpoint {
    const Host* host = nullptr;
    PacketHandler handler;
    std::uint32_t gen = 0;
  };

  struct Slot {
    Endpoint ends[2];
  };

  /// The slot of `flow`, or nullptr when `flow` lies outside the table
  /// (negative ids included).
  Slot* find(FlowId flow) {
    const auto idx = static_cast<std::uint32_t>(flow);
    if (idx >= slot_capacity()) return nullptr;
    return &chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  /// The slot of `flow` (>= 0), growing the table by whole chunks.
  Slot& grow_to(FlowId flow);

  /// Slots allocated, a whole number of chunks.
  std::size_t slot_capacity() const { return chunks_.size() * kChunkSize; }

 private:
  std::vector<std::unique_ptr<Slot[]>> chunks_;
};

/// End host: demultiplexes received packets to per-flow handlers through
/// its topology's FlowDemux and sends all outbound traffic over its single
/// uplink. A handle carries the registration's generation, so a stale
/// handle from a destroyed flow can never unregister a reused id.
class Host : public Node {
 public:
  using PacketHandler = FlowDemux::PacketHandler;

  /// Identifies one registration: flow id plus its generation. Default-
  /// constructed handles are inert.
  struct FlowHandle {
    FlowId flow = kInvalidFlow;
    std::uint32_t gen = 0;
  };

  /// `demux` is the owning topology's table and must outlive the host.
  Host(NodeId id, std::string name, FlowDemux& demux)
      : Node(id, std::move(name)), demux_(demux) {}

  void receive(const Packet& pkt) override;

  /// Sends a packet out the uplink. The packet's `src` is stamped with this
  /// host's id.
  void send(const Packet& pkt);

  void set_uplink(Link* uplink) { uplink_ = uplink; }
  Link* uplink() const { return uplink_; }

  /// Registers this host's receive handler for one flow and returns a
  /// handle for generation-checked unregistration. A flow has at most two
  /// live endpoints, one per host (data and ACKs arrive at different
  /// hosts). Registering over this host's live handler replaces it (and
  /// invalidates handles to the previous registration). Throws
  /// std::invalid_argument, naming the host and the id, for a negative id,
  /// an empty handler or a third live endpoint.
  FlowHandle register_flow(FlowId flow, PacketHandler handler);

  /// Unconditionally removes this host's handler for `flow` (if any).
  void unregister_flow(FlowId flow);
  /// Removes the handler only if `handle` still names the live
  /// registration; a stale handle (the id was reused since) is a no-op.
  void unregister_flow(const FlowHandle& handle);

  std::int64_t delivered_packets() const { return delivered_; }
  std::int64_t unclaimed_packets() const { return unclaimed_; }

 private:
  /// This host's live endpoint of `flow`, or nullptr.
  FlowDemux::Endpoint* endpoint(FlowId flow);

  Link* uplink_ = nullptr;
  FlowDemux& demux_;
  std::int64_t delivered_ = 0;
  std::int64_t unclaimed_ = 0;
};

}  // namespace mltcp::net
