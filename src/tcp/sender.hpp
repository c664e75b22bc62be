#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "tcp/cong_control.hpp"
#include "tcp/interval_set.hpp"
#include "tcp/rtt_estimator.hpp"

namespace mltcp::tcp {

struct SenderConfig {
  std::int32_t mtu = net::kDefaultMtu;
  sim::SimTime min_rto = sim::milliseconds(1);
  /// Ceiling of the exponential RTO backoff. During a long blackout (link
  /// down, scenario fault) the sender keeps probing at most this far apart,
  /// so recovery latency after the path heals is bounded by max_rto instead
  /// of growing without limit.
  sim::SimTime max_rto = sim::seconds(60);
  /// When true, data packets carry their flow's remaining bytes as the
  /// pFabric priority.
  bool pfabric_priority = false;
  /// RFC 2861 congestion-window validation: when a new message starts after
  /// the connection has been idle for longer than the RTO, reset the window
  /// to its initial value (Linux's tcp_slow_start_after_idle, default on).
  bool slow_start_after_idle = true;
  /// SACK-based loss recovery: use the receiver's SACK blocks to retransmit
  /// exactly the holes instead of NewReno's one-hole-per-RTT probing.
  /// Default off so the baseline matches the classic Reno the paper builds
  /// on; bench/ablations quantifies the difference.
  bool use_sack = false;
  /// Pace data packets at cwnd/srtt instead of releasing ACK-clocked bursts
  /// (Linux's sk_pacing). Smooths queues at the cost of extra timers.
  /// Default off, matching the classic stack the paper modifies.
  bool pacing = false;
};

/// Counters exposed for tests and experiment reports.
struct SenderStats {
  std::int64_t data_packets_sent = 0;
  std::int64_t retransmissions = 0;
  std::int64_t fast_retransmits = 0;
  std::int64_t timeouts = 0;
  std::int64_t messages_completed = 0;
  std::int64_t segments_acked = 0;
  /// RTT samples discarded because the ACK covered a retransmitted segment
  /// (Karn's algorithm: the echoed timestamp is ambiguous).
  std::int64_t rtt_samples_karn_skipped = 0;
};

/// TCP send side: sliding window over segment sequence numbers, duplicate-ACK
/// fast retransmit with NewReno-style partial-ACK recovery, and a
/// retransmission timer with exponential backoff. Window sizing is delegated
/// to the pluggable CongestionControl.
///
/// The application interface is message oriented: each send_message() call
/// appends `bytes` to the stream and fires its callback when every segment of
/// the message has been cumulatively acknowledged. A DNN job posts one
/// message per training iteration.
class TcpSender {
 public:
  using CompletionCallback = std::function<void(sim::SimTime)>;

  TcpSender(sim::Simulator& simulator, net::Host& local, net::NodeId dst,
            net::FlowId flow, std::unique_ptr<CongestionControl> cc,
            SenderConfig cfg = {});
  ~TcpSender();

  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  /// Appends a message of `bytes` to the stream. Messages complete in FIFO
  /// order; `on_complete` runs when the last segment is acknowledged.
  /// Throws std::invalid_argument, naming the flow and the size, unless
  /// `bytes > 0`: an empty message would occupy no segment, so no ACK would
  /// ever complete it.
  void send_message(std::int64_t bytes, CompletionCallback on_complete);

  /// Handles one incoming ACK packet.
  void on_packet(const net::Packet& pkt);

  /// Segments of payload a message of `bytes` occupies.
  std::int64_t segments_for_bytes(std::int64_t bytes) const;

  std::int32_t payload_per_segment() const {
    return cfg_.mtu - net::kHeaderBytes;
  }

  bool idle() const { return snd_una_ == send_limit_; }
  std::int64_t inflight() const { return next_seq_ - snd_una_; }
  std::int64_t snd_una() const { return snd_una_; }
  std::int64_t next_seq() const { return next_seq_; }
  bool in_recovery() const { return in_recovery_; }

  CongestionControl& cc() { return *cc_; }
  const CongestionControl& cc() const { return *cc_; }
  const RttEstimator& rtt() const { return rtt_; }
  const SenderStats& stats() const { return stats_; }
  net::FlowId flow() const { return flow_; }

 private:
  void try_send();
  void send_segment(std::int64_t seq, bool retransmission);
  /// Payload bytes segment `seq` carries: a full MSS except for the final
  /// segment of a message, which carries only the message's remainder.
  std::int32_t payload_for_seq(std::int64_t seq) const;
  /// Application bytes of the flow not yet cumulatively acknowledged — the
  /// true pFabric remaining-size priority (headers excluded, the final
  /// short segment not padded to a full MTU).
  std::int64_t remaining_payload_bytes() const;
  void handle_new_ack(const net::Packet& pkt);
  void handle_dup_ack();
  void absorb_sack(const net::Packet& pkt);
  /// Lowest unacknowledged, un-SACKed, not-yet-retransmitted segment below
  /// the highest SACKed one; -1 when there is no such hole.
  std::int64_t next_sack_hole() const;
  void retransmit_sack_holes(int budget);
  void complete_messages();
  void arm_rto();
  void cancel_rto();
  void on_rto();
  std::int64_t usable_window() const;

  sim::Simulator& sim_;
  net::Host& local_;
  net::NodeId dst_;
  net::FlowId flow_;
  std::unique_ptr<CongestionControl> cc_;
  SenderConfig cfg_;
  RttEstimator rtt_;

  struct Message {
    std::int64_t start_seq = 0;
    std::int64_t end_seq = 0;
    std::int64_t bytes = 0;
    CompletionCallback on_complete;
  };
  sim::Ring<Message> messages_;

  std::int64_t send_limit_ = 0;  ///< One past the last segment to send.
  std::int64_t next_seq_ = 0;
  std::int64_t snd_una_ = 0;
  std::int64_t max_seq_sent_ = -1;  ///< Highest segment ever transmitted.
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::int64_t recover_ = 0;
  /// Retransmission timer: bound once to on_rto(), rearmed in place on every
  /// ACK instead of cancel + reschedule churn.
  sim::Timer rto_timer_;
  sim::SimTime last_activity_ = -1;  ///< Last send or ACK; -1 = never.

  // SACK scoreboard (only populated when cfg_.use_sack).
  IntervalSet sacked_;
  /// Holes already retransmitted this recovery epoch (don't resend them on
  /// every dupACK); cleared when recovery ends.
  IntervalSet rexmit_epoch_;
  /// Segments retransmitted and not yet cumulatively acknowledged — an ACK
  /// covering any of them yields an ambiguous (Karn) RTT timestamp.
  /// Maintained in every mode, not just SACK.
  IntervalSet karn_rexmit_;

  // Pacing state (only used when cfg_.pacing).
  sim::SimTime next_pace_time_ = 0;
  sim::Timer pace_timer_;

  SenderStats stats_;
};

}  // namespace mltcp::tcp
