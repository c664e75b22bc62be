#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace mltcp::core {

/// Configuration of Algorithm 1's per-flow state.
///
/// TOTAL_BYTES and COMP_TIME can be supplied by the application (the paper's
/// INITIALIZE procedure) or learned automatically from the first few
/// iterations (§3.2: "we automatically learn these values by measuring the
/// total amount of data and computation time during the first few
/// iterations").
struct TrackerConfig {
  /// Bytes sent per training iteration; 0 = learn automatically.
  std::int64_t total_bytes = 0;
  /// ACK-gap threshold marking an iteration boundary; 0 = learn.
  sim::SimTime comp_time = 0;
  /// Packet size used for byte accounting (Algorithm 1 line 7).
  std::int32_t mtu = net::kDefaultMtu;

  /// --- auto-learning parameters ---
  /// Complete iterations to observe before locking in learned values.
  int learn_iterations = 2;
  /// During learning, an ACK gap above this counts as an iteration boundary
  /// (the paper uses "several round-trip times").
  sim::SimTime learn_min_gap = sim::milliseconds(5);
  /// Learned COMP_TIME threshold = smallest observed compute gap times this
  /// safety factor, so RTT/queueing jitter never fakes a boundary.
  double comp_time_safety = 0.5;
};

/// Per-flow iteration state of Algorithm 1: counts successfully sent bytes,
/// detects iteration boundaries from gaps in the ACK stream, and exposes
/// bytes_ratio = min(1, bytes_sent / TOTAL_BYTES).
class IterationTracker {
 public:
  explicit IterationTracker(TrackerConfig cfg = {});

  /// Algorithm 1's CONGESTION_AVOIDANCE bookkeeping, called per ACK.
  /// `num_acks` is the number of newly acknowledged segments.
  void on_ack(int num_acks, sim::SimTime now);

  /// Current fraction of the iteration's bytes confirmed sent, in [0, 1].
  double bytes_ratio() const { return bytes_ratio_; }

  std::int64_t bytes_sent() const { return bytes_sent_; }

  /// Iteration boundaries detected so far.
  int iterations_seen() const { return iterations_seen_; }

  /// True once TOTAL_BYTES and COMP_TIME are available (configured or
  /// learned).
  bool calibrated() const { return total_bytes_ > 0 && comp_time_ > 0; }

  std::int64_t total_bytes() const { return total_bytes_; }
  sim::SimTime comp_time() const { return comp_time_; }

 private:
  void learn_from_boundary(sim::SimTime gap, std::int64_t burst_bytes);

  TrackerConfig cfg_;
  std::int64_t total_bytes_ = 0;   ///< Active TOTAL_BYTES (0 until known).
  sim::SimTime comp_time_ = 0;     ///< Active COMP_TIME gap threshold.

  double bytes_ratio_ = 0.0;
  std::int64_t bytes_sent_ = 0;
  sim::SimTime prev_ack_tstamp_ = 0;
  int iterations_seen_ = 0;

  // Learning state.
  bool learning_ = false;
  std::int64_t burst_bytes_ = 0;  ///< Bytes since the last detected boundary.
  std::vector<std::int64_t> observed_bursts_;
  std::vector<sim::SimTime> observed_gaps_;
};

}  // namespace mltcp::core
