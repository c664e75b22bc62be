#include "tcp/receiver.hpp"

namespace mltcp::tcp {

TcpReceiver::TcpReceiver(sim::Simulator& simulator, net::Host& local,
                         net::NodeId peer, net::FlowId flow,
                         ReceiverConfig cfg)
    : sim_(simulator), local_(local), peer_(peer), flow_(flow), cfg_(cfg),
      delayed_ack_timer_(simulator, [this] { send_ack(pending_trigger_); }) {}

void TcpReceiver::on_packet(const net::Packet& pkt) {
  if (pkt.type != net::PacketType::kData) return;
  ++data_packets_;
  if (pkt.ce) pending_ce_ = true;

  if (pkt.seq == rcv_next_) {
    ++rcv_next_;
    // Absorb the buffered run this segment completes, if any: intervals are
    // disjoint and non-adjacent, so only the first can start here.
    if (!ooo_.empty() && ooo_.intervals().begin()->first == rcv_next_) {
      rcv_next_ = ooo_.intervals().begin()->second;
      ooo_.erase_below(rcv_next_);
    }
    ++unacked_in_order_;
    if (unacked_in_order_ >= cfg_.ack_every) {
      send_ack(pkt);
    } else {
      schedule_delayed_ack(pkt);
    }
    return;
  }

  if (pkt.seq > rcv_next_) {
    ooo_.insert(pkt.seq, pkt.seq + 1);
  }
  // Below-window (spurious retransmission) or out-of-order: ACK immediately
  // so the sender sees duplicate ACKs.
  send_ack(pkt);
}

void TcpReceiver::schedule_delayed_ack(const net::Packet& trigger) {
  pending_trigger_ = trigger;
  if (delayed_ack_timer_.pending()) {
    return;  // timer already running; it will ack cumulatively
  }
  delayed_ack_timer_.arm(cfg_.delayed_ack_timeout);
}

void TcpReceiver::send_ack(const net::Packet& trigger) {
  delayed_ack_timer_.cancel();
  unacked_in_order_ = 0;

  net::Packet ack;
  ack.flow = flow_;
  ack.dst = peer_;
  ack.type = net::PacketType::kAck;
  ack.seq = rcv_next_;
  ack.size_bytes = net::kAckBytes;
  ack.ece = pending_ce_;
  ack.tx_timestamp = trigger.tx_timestamp;  // echo for RTT sampling

  if (cfg_.sack_enabled) {
    // The first kMaxSackBlocks buffered runs, lowest first (the runs nearest
    // the hole matter most to the sender's scoreboard).
    for (const auto& [start, end] : ooo_.intervals()) {
      if (ack.sack_count() == net::kMaxSackBlocks) break;
      ack.add_sack(start, end);
    }
  }

  pending_ce_ = false;
  ++acks_sent_;
  local_.send(ack);
}

}  // namespace mltcp::tcp
