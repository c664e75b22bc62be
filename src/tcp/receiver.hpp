#pragma once

#include <cstdint>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "tcp/interval_set.hpp"

namespace mltcp::tcp {

struct ReceiverConfig {
  /// Send one cumulative ACK per `ack_every` in-order data packets.
  /// Out-of-order arrivals are always acknowledged immediately (dup ACKs).
  int ack_every = 1;
  /// Deadline for a delayed ACK when ack_every > 1.
  sim::SimTime delayed_ack_timeout = sim::microseconds(500);
  /// Attach SACK blocks describing buffered out-of-order ranges to ACKs.
  bool sack_enabled = true;
};

/// TCP receive side: cumulative acknowledgements over segment sequence
/// numbers, out-of-order buffering, ECN echo and timestamp echo for RTT
/// sampling.
class TcpReceiver {
 public:
  TcpReceiver(sim::Simulator& simulator, net::Host& local, net::NodeId peer,
              net::FlowId flow, ReceiverConfig cfg = {});

  /// Handles one incoming data packet.
  void on_packet(const net::Packet& pkt);

  std::int64_t rcv_next() const { return rcv_next_; }
  std::int64_t data_packets_received() const { return data_packets_; }
  std::int64_t acks_sent() const { return acks_sent_; }

 private:
  void send_ack(const net::Packet& trigger);
  void schedule_delayed_ack(const net::Packet& trigger);

  sim::Simulator& sim_;
  net::Host& local_;
  net::NodeId peer_;
  net::FlowId flow_;
  ReceiverConfig cfg_;

  std::int64_t rcv_next_ = 0;
  IntervalSet ooo_;  ///< Out-of-order segments, all above rcv_next_.
  bool pending_ce_ = false;
  int unacked_in_order_ = 0;
  /// Reusable delayed-ACK deadline; the callback acks `pending_trigger_`.
  sim::Timer delayed_ack_timer_;
  net::Packet pending_trigger_{};

  std::int64_t data_packets_ = 0;
  std::int64_t acks_sent_ = 0;
};

}  // namespace mltcp::tcp
