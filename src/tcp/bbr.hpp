#pragma once

#include <array>
#include <cstdint>

#include "tcp/cong_control.hpp"

namespace mltcp::tcp {

struct BbrConfig {
  double initial_cwnd = 10.0;
  /// Floor of the computed window; also the PROBE_RTT window (BBR uses 4).
  double min_cwnd = 4.0;
  /// STARTUP pacing/cwnd gain 2/ln2: doubles the delivery rate every RTT.
  double startup_gain = 2.885;
  /// PROBE_BW cycle gains for the probing and draining phases; the six
  /// remaining phases cruise at 1.0.
  double probe_bw_up = 1.25;
  double probe_bw_down = 0.75;
  /// Steady-state cwnd = cwnd_gain * BDP: headroom for delayed/aggregated
  /// ACKs without letting the queue grow unboundedly.
  double cwnd_gain = 2.0;
  /// Windowed-max bandwidth filter length, in packet-timed rounds.
  int bw_filter_rounds = 10;
  /// STARTUP exits once the bandwidth estimate has grown less than
  /// `startup_growth_target` over `startup_full_bw_rounds` consecutive
  /// rounds (the pipe is full).
  double startup_growth_target = 1.25;
  int startup_full_bw_rounds = 3;
  /// min_rtt filter window; expiry without a new low triggers PROBE_RTT.
  sim::SimTime min_rtt_window = sim::seconds(10);
  sim::SimTime probe_rtt_duration = sim::milliseconds(200);
};

/// BBR (Cardwell et al., CACM'17), simplified to the simulator's ACK model:
/// a STARTUP/DRAIN/PROBE_BW/PROBE_RTT state machine estimates the
/// bottleneck bandwidth (windowed max of per-round delivery rates, in
/// segments/sec) and the propagation delay (windowed min RTT), then paces at
/// pacing_gain * btl_bw while capping inflight at cwnd_gain * BDP. Unlike
/// the window-based controllers, congestion response lives in the model —
/// losses do not collapse the window.
///
/// MLTCP augmentation is the rate-based analogue of scaling Reno's additive
/// increase, applied at the two places BBR expresses aggressiveness:
///  1. the steady-state inflight cap becomes cwnd_gain * F * BDP — under
///     oversubscription every flow is window-limited and the queue shares
///     capacity by inflight, so this cap decides the flow's share;
///  2. the PROBE_BW *up-phase* pacing gain becomes
///     1 + (probe_bw_up - 1) * F, so a flow near the end of its iteration
///     probes for bandwidth almost twice as hard while a flow that just
///     started barely probes at all.
/// Together they produce the same asymmetry that makes the window-based
/// variants converge to interleaved schedules (§3.1, §6).
class BbrCC : public CongestionControl {
 public:
  enum class State { kStartup, kDrain, kProbeBw, kProbeRtt };

  explicit BbrCC(BbrConfig cfg = {}, std::shared_ptr<WindowGain> gain = {});

  void on_ack(const AckContext& ctx) override;
  void on_loss(sim::SimTime now) override;
  void on_timeout(sim::SimTime now) override;
  void on_idle_restart(sim::SimTime now) override;

  double cwnd() const override;
  double ssthresh() const override { return cwnd(); }
  double pacing_rate() const override;
  std::string name() const override;

  State state() const { return state_; }
  /// Bottleneck-bandwidth estimate, segments/sec (0 until the first round).
  double btl_bw() const { return btl_bw_; }
  sim::SimTime min_rtt() const { return min_rtt_; }
  /// Estimated bandwidth-delay product in segments (0 until measured).
  double bdp() const;
  /// Current pacing gain (exposed for tests: the MLTCP seam scales the
  /// PROBE_BW up phase).
  double current_pacing_gain() const;
  int probe_bw_phase() const { return phase_; }
  bool filled_pipe() const { return filled_pipe_; }

 private:
  /// Advances round accounting; returns true when `ctx` starts a new round
  /// (every segment in flight at the previous round start has been acked).
  bool update_round(const AckContext& ctx);
  void update_bw_filter(double sample);
  void update_min_rtt(const AckContext& ctx);
  void check_full_pipe();
  void enter_probe_bw();

  BbrConfig cfg_;
  State state_ = State::kStartup;
  int phase_ = 0;  ///< PROBE_BW cycle position (0 = up, 1 = down).

  // Delivery / round accounting.
  std::int64_t delivered_ = 0;        ///< Segments cumulatively delivered.
  std::int64_t round_end_seq_ = 0;    ///< ACK seq that closes this round.
  std::int64_t round_start_delivered_ = 0;
  sim::SimTime round_start_time_ = -1;
  int round_count_ = 0;

  // Windowed-max bandwidth filter: (round, sample) pairs, newest last,
  // samples strictly decreasing — a standard monotonic max queue.
  struct BwSample {
    int round = 0;
    double bw = 0.0;
  };
  std::array<BwSample, 16> bw_filter_{};
  int bw_filter_size_ = 0;
  double btl_bw_ = 0.0;

  // min_rtt filter.
  sim::SimTime min_rtt_ = 0;
  sim::SimTime min_rtt_stamp_ = -1;
  sim::SimTime probe_rtt_start_ = -1;
  sim::SimTime probe_rtt_min_ = -1;  ///< Lowest sample this PROBE_RTT.

  // STARTUP full-pipe detection.
  double full_bw_ = 0.0;
  int full_bw_rounds_ = 0;
  bool filled_pipe_ = false;
};

}  // namespace mltcp::tcp
