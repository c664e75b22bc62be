#include "tcp/sender.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "telemetry/tracer.hpp"

namespace mltcp::tcp {

namespace {

/// Cap on back-to-back packets released per send opportunity, bounding
/// burstiness after a window jump.
constexpr int kMaxBurst = 256;

}  // namespace

TcpSender::TcpSender(sim::Simulator& simulator, net::Host& local,
                     net::NodeId dst, net::FlowId flow,
                     std::unique_ptr<CongestionControl> cc, SenderConfig cfg)
    : sim_(simulator),
      local_(local),
      dst_(dst),
      flow_(flow),
      cc_(std::move(cc)),
      cfg_(cfg),
      rtt_(cfg.min_rto, cfg.max_rto),
      rto_timer_(simulator, [this] { on_rto(); }),
      pace_timer_(simulator, [this] { try_send(); }) {
  assert(cc_ != nullptr);
  assert(cfg_.mtu > net::kHeaderBytes);
  cc_->window_gain().bind_telemetry(&sim_, flow_);
}

TcpSender::~TcpSender() { cancel_rto(); }

std::int64_t TcpSender::segments_for_bytes(std::int64_t bytes) const {
  const std::int64_t payload = payload_per_segment();
  return (bytes + payload - 1) / payload;
}

void TcpSender::send_message(std::int64_t bytes,
                             CompletionCallback on_complete) {
  if (bytes <= 0) {
    throw std::invalid_argument("tcp flow " + std::to_string(flow_) +
                                ": message of " + std::to_string(bytes) +
                                " bytes is not positive");
  }
  if (cfg_.slow_start_after_idle && idle() && last_activity_ >= 0 &&
      sim_.now() - last_activity_ > rtt_.rto()) {
    cc_->on_idle_restart(sim_.now());
  }
  const std::int64_t start_seq = send_limit_;
  send_limit_ += segments_for_bytes(bytes);
  messages_.push_back(
      Message{start_seq, send_limit_, bytes, std::move(on_complete)});
  try_send();
}

std::int64_t TcpSender::usable_window() const {
  const auto w = static_cast<std::int64_t>(cc_->cwnd());
  return std::max<std::int64_t>(w, 1);
}

void TcpSender::try_send() {
  // A rate-based controller owns its release rate: its pacing_rate() drives
  // the pace timer even when SenderConfig::pacing is off (cwnd stays the
  // inflight cap). Window-based controllers return 0 and keep the configured
  // behavior.
  const double cc_rate = cc_->pacing_rate();
  if (!cfg_.pacing && cc_rate <= 0.0) {
    int burst = kMaxBurst;
    while (next_seq_ < send_limit_ && inflight() < usable_window() &&
           burst-- > 0) {
      // After an RTO rewind next_seq_ revisits already-sent segments; those
      // are retransmissions (Karn must not sample their RTT).
      send_segment(next_seq_, /*retransmission=*/next_seq_ <= max_seq_sent_);
      ++next_seq_;
    }
    if (inflight() > 0 && !rto_timer_.pending()) arm_rto();
    return;
  }

  // Paced release: one segment per interval. The interval is 1/pacing_rate
  // when the controller supplies a rate, cwnd/srtt otherwise. Until either
  // exists (no RTT sample, no bandwidth estimate), fall back to ACK-clocked
  // release (initial window only).
  while (next_seq_ < send_limit_ && inflight() < usable_window()) {
    if (cc_rate > 0.0 || rtt_.has_sample()) {
      if (sim_.now() < next_pace_time_) {
        if (!pace_timer_.pending()) pace_timer_.arm_at(next_pace_time_);
        break;
      }
      const auto interval =
          cc_rate > 0.0
              ? sim::from_seconds(1.0 / cc_rate)
              : static_cast<sim::SimTime>(static_cast<double>(rtt_.srtt()) /
                                          std::max(cc_->cwnd(), 1.0));
      next_pace_time_ = sim_.now() + interval;
    }
    send_segment(next_seq_, /*retransmission=*/next_seq_ <= max_seq_sent_);
    ++next_seq_;
  }
  if (inflight() > 0 && !rto_timer_.pending()) arm_rto();
}

std::int32_t TcpSender::payload_for_seq(std::int64_t seq) const {
  // Unacknowledged segments always belong to a message still queued (a
  // message is popped only once fully acked), so the linear scan touches at
  // most the handful of in-flight messages.
  for (std::size_t i = 0; i < messages_.size(); ++i) {
    const Message& m = messages_[i];
    if (seq >= m.end_seq) continue;
    if (seq < m.start_seq) break;
    if (seq == m.end_seq - 1) {
      const auto full = static_cast<std::int64_t>(payload_per_segment());
      return static_cast<std::int32_t>(m.bytes -
                                       (m.end_seq - m.start_seq - 1) * full);
    }
    return payload_per_segment();
  }
  return payload_per_segment();
}

std::int64_t TcpSender::remaining_payload_bytes() const {
  // Messages are popped only once fully acknowledged, so every queued
  // message still owes bytes. Within the partially acked front message all
  // acknowledged segments are full-size (the short one is the last, and a
  // message with its last segment acked would already be popped).
  std::int64_t remaining = 0;
  for (std::size_t i = 0; i < messages_.size(); ++i) {
    const Message& m = messages_[i];
    remaining += m.bytes;
    if (snd_una_ > m.start_seq && snd_una_ < m.end_seq) {
      remaining -= (snd_una_ - m.start_seq) *
                   static_cast<std::int64_t>(payload_per_segment());
    }
  }
  return remaining;
}

void TcpSender::send_segment(std::int64_t seq, bool retransmission) {
  net::Packet pkt;
  pkt.flow = flow_;
  pkt.dst = dst_;
  pkt.type = net::PacketType::kData;
  pkt.seq = seq;
  // The final segment of a message carries only the remainder, so wire-byte
  // accounting matches the application bytes instead of padding to the MTU.
  pkt.size_bytes = payload_for_seq(seq) + net::kHeaderBytes;
  pkt.ecn_capable = cc_->wants_ecn();
  pkt.tx_timestamp = sim_.now();
  if (cfg_.pfabric_priority) {
    // Remaining application bytes of the flow's outstanding work, per
    // pFabric. Counting segments * MTU would include headers and pad the
    // final short segment, biasing SRPT order against flows whose tail
    // segment is small.
    pkt.priority = remaining_payload_bytes();
  }
  ++stats_.data_packets_sent;
  if (retransmission) {
    ++stats_.retransmissions;
    karn_rexmit_.insert(seq, seq + 1);
  }
  max_seq_sent_ = std::max(max_seq_sent_, seq);
  last_activity_ = sim_.now();
  local_.send(pkt);
}

void TcpSender::on_packet(const net::Packet& pkt) {
  if (pkt.type != net::PacketType::kAck) return;
  if (cfg_.use_sack) absorb_sack(pkt);
  if (pkt.seq > snd_una_) {
    handle_new_ack(pkt);
  } else if (pkt.seq == snd_una_ && inflight() > 0) {
    handle_dup_ack();
  }
  try_send();
}

void TcpSender::absorb_sack(const net::Packet& pkt) {
  for (int i = 0; i < pkt.sack_count(); ++i) {
    const net::SackBlock block = pkt.sack(i);
    sacked_.insert(std::max(block.start, snd_una_),
                   std::min(block.end, next_seq_));
  }
}

std::int64_t TcpSender::next_sack_hole() const {
  if (sacked_.empty()) return -1;
  // Walk the gaps between SACKed intervals below the highest SACKed
  // segment; within each gap, skip what this epoch already retransmitted.
  // O(holes) per call instead of the old O(window) rescan from snd_una_.
  const std::int64_t highest = sacked_.upper_bound_value() - 1;
  std::int64_t gap_start = snd_una_;
  for (const auto& [start, end] : sacked_.intervals()) {
    const std::int64_t gap_end = std::min(start, highest);
    if (gap_start < gap_end) {
      const std::int64_t hole = rexmit_epoch_.first_missing(gap_start, gap_end);
      if (hole < gap_end) return hole;
    }
    gap_start = std::max(gap_start, end);
    if (gap_start >= highest) break;
  }
  return -1;
}

void TcpSender::retransmit_sack_holes(int budget) {
  while (budget-- > 0) {
    const std::int64_t hole = next_sack_hole();
    if (hole < 0) return;
    rexmit_epoch_.insert(hole, hole + 1);
    send_segment(hole, /*retransmission=*/true);
  }
}

void TcpSender::handle_new_ack(const net::Packet& pkt) {
  const std::int64_t prev_una = snd_una_;
  const auto num_acked = static_cast<int>(pkt.seq - snd_una_);
  snd_una_ = pkt.seq;
  stats_.segments_acked += num_acked;
  rtt_.reset_backoff();

  // Karn's algorithm: if the newly acknowledged range contains a segment
  // that was retransmitted, the echoed timestamp may belong to either the
  // original or the retransmission — feeding it to the estimator right
  // after a loss corrupts srtt/RTO. Skip the sample.
  sim::SimTime rtt_sample = -1;
  if (pkt.tx_timestamp > 0 && sim_.now() >= pkt.tx_timestamp) {
    if (karn_rexmit_.overlaps(prev_una, pkt.seq)) {
      ++stats_.rtt_samples_karn_skipped;
    } else {
      rtt_sample = sim_.now() - pkt.tx_timestamp;
      rtt_.add_sample(rtt_sample);
    }
  }
  karn_rexmit_.erase_below(snd_una_);

  AckContext ctx;
  ctx.now = sim_.now();
  ctx.num_acked = num_acked;
  ctx.ack_seq = pkt.seq;
  ctx.ece = pkt.ece;
  ctx.rtt_sample = rtt_sample;
  ctx.inflight = inflight();

  // Cumulatively acknowledged segments leave the scoreboard.
  if (cfg_.use_sack) {
    sacked_.erase_below(snd_una_);
    rexmit_epoch_.erase_below(snd_una_);
  }

  if (in_recovery_) {
    if (snd_una_ >= recover_) {
      in_recovery_ = false;
      dup_acks_ = 0;
      rexmit_epoch_.clear();
      // The full ACK that exits recovery cumulatively covers the whole
      // recovery episode. Feeding all of it to congestion avoidance would
      // grow cwnd by ~gain in one step right after the halving (double the
      // per-RTT budget); bound the exit ACK's window credit to a single
      // ACK's worth while byte accounting keeps the full num_acked.
      ctx.ca_acked = std::min(num_acked, 1);
      cc_->on_ack(ctx);
    } else {
      // Partial ACK: the window is frozen (no cc_->on_ack), but Algorithm 1
      // line 7 counts every acknowledged byte — without this the bytes
      // acked by partial ACKs never reach the MLTCP tracker and
      // bytes_ratio under-reports for the rest of the iteration.
      cc_->window_gain().on_ack(ctx);
      if (cfg_.use_sack) {
        // With SACK: the new front hole was either never sent or its
        // retransmission was itself lost — make it eligible again, then
        // plug the reported holes.
        rexmit_epoch_.erase(snd_una_, snd_una_ + 1);
        retransmit_sack_holes(2);
      } else {
        // NewReno: the next hole is lost too; retransmit it.
        send_segment(snd_una_, /*retransmission=*/true);
      }
    }
  } else {
    dup_acks_ = 0;
    cc_->on_ack(ctx);
  }

  // Fresh timer for the remaining in-flight data: arming a pending timer
  // re-keys its deadline in place.
  if (inflight() > 0) {
    arm_rto();
  } else {
    cancel_rto();
  }

  // Per-ACK window sample: very hot, so it hides behind its own category
  // (kTcpAck) that experiments opt into explicitly.
  if (auto* t = telemetry::tracer_for(sim_, telemetry::Category::kTcpAck)) {
    t->counter(telemetry::Category::kTcpAck, "cwnd", sim_.now(),
               telemetry::track_flow(flow_), cc_->cwnd());
  }

  complete_messages();
}

void TcpSender::handle_dup_ack() {
  ++dup_acks_;
  if (dup_acks_ == 3 && !in_recovery_) {
    in_recovery_ = true;
    recover_ = next_seq_;
    ++stats_.fast_retransmits;
    if (auto* t = telemetry::tracer_for(sim_, telemetry::Category::kTcp)) {
      t->instant(telemetry::Category::kTcp, "fast_retransmit", sim_.now(),
                 telemetry::track_flow(flow_), "seq",
                 static_cast<double>(snd_una_), "cwnd", cc_->cwnd());
    }
    cc_->on_loss(sim_.now());
    rexmit_epoch_.insert(snd_una_, snd_una_ + 1);
    send_segment(snd_una_, /*retransmission=*/true);
    arm_rto();
  } else if (in_recovery_ && cfg_.use_sack) {
    // Every further dupACK refreshes the scoreboard; plug one hole.
    retransmit_sack_holes(1);
  }
}

void TcpSender::complete_messages() {
  while (!messages_.empty() && snd_una_ >= messages_.front().end_seq) {
    Message msg = std::move(messages_.front());
    messages_.pop_front();
    ++stats_.messages_completed;
    if (msg.on_complete) msg.on_complete(sim_.now());
  }
}

void TcpSender::arm_rto() { rto_timer_.arm(rtt_.rto()); }

void TcpSender::cancel_rto() { rto_timer_.cancel(); }

void TcpSender::on_rto() {
  if (inflight() <= 0) return;
  ++stats_.timeouts;
  if (auto* t = telemetry::tracer_for(sim_, telemetry::Category::kTcp)) {
    t->instant(telemetry::Category::kTcp, "rto", sim_.now(),
               telemetry::track_flow(flow_), "rto_us",
               static_cast<double>(rtt_.rto()) / 1e3, "inflight",
               static_cast<double>(inflight()));
  }
  cc_->on_timeout(sim_.now());
  rtt_.backoff();
  in_recovery_ = false;
  dup_acks_ = 0;
  rexmit_epoch_.clear();
  sacked_.clear();  // conservative: rebuild the scoreboard after an RTO
  // Go-back-N: rewind and resend from the first unacknowledged segment.
  next_seq_ = snd_una_;
  try_send();
}

}  // namespace mltcp::tcp
