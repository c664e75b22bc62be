#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "sim/ring.hpp"
#include "sim/time.hpp"

namespace mltcp::sim {
class Simulator;
}

namespace mltcp::net {

/// Statistics every queue discipline keeps.
struct QueueStats {
  std::int64_t enqueued_packets = 0;
  std::int64_t dropped_packets = 0;
  std::int64_t marked_packets = 0;  ///< ECN CE marks applied.
  std::int64_t max_backlog_bytes = 0;
};

/// Buffering policy of one link. Implementations decide admission (drop),
/// ordering (dequeue) and marking (ECN).
class QueueDiscipline {
 public:
  virtual ~QueueDiscipline() = default;

  /// Offers a packet to the queue. Returns false if the packet was dropped.
  /// Implementations may instead drop a lower-priority queued packet to admit
  /// this one (pFabric).
  virtual bool enqueue(const Packet& pkt, sim::SimTime now) = 0;

  /// Removes and returns the next packet to transmit, or nullopt when empty.
  virtual std::optional<Packet> dequeue(sim::SimTime now) = 0;

  /// Single-call enqueue-then-dequeue, used by a link whose transmitter is
  /// idle: admission, marking, statistics and RNG consumption are identical
  /// to enqueue() followed by dequeue(). Disciplines whose empty-queue path
  /// is trivial override this to skip the buffer round-trip.
  virtual std::optional<Packet> enqueue_dequeue(const Packet& pkt,
                                                sim::SimTime now) {
    if (!enqueue(pkt, now)) return std::nullopt;
    return dequeue(now);
  }

  virtual bool empty() const = 0;
  virtual std::int64_t backlog_bytes() const = 0;
  virtual std::size_t backlog_packets() const = 0;

  const QueueStats& stats() const { return stats_; }

  /// Telemetry wiring, set by the owning Link: drop/mark decisions are
  /// traced (Category::kQueue) with the link's identity. `name` must
  /// outlive the queue; decorators forward the context to their inner
  /// queue. A null simulator (the default) disables tracing.
  virtual void set_trace_context(sim::Simulator* sim, const char* name,
                                 std::uint64_t track) {
    trace_sim_ = sim;
    trace_name_ = name;
    trace_track_ = track;
  }

 protected:
  /// Emit a Category::kQueue event for a dropped / ECN-marked packet.
  /// Called next to the stats_ increments; no-ops without a tracer.
  void trace_drop(const Packet& pkt, sim::SimTime now);
  void trace_mark(const Packet& pkt, sim::SimTime now);

  QueueStats stats_;
  sim::Simulator* trace_sim_ = nullptr;
  const char* trace_name_ = "";
  std::uint64_t trace_track_ = 0;
};

/// Factory used by topology builders so each link gets its own queue.
using QueueFactory = std::function<std::unique_ptr<QueueDiscipline>()>;

/// FIFO of packets backing the FIFO and RED disciplines. Once a queue has
/// seen its working depth it runs allocation-free, the forwarding half of
/// the steady-state alloc-free guarantee (see DESIGN.md "Forwarding path &
/// scale").
using PacketRing = sim::Ring<Packet>;

/// FIFO with a byte-capacity bound: arrivals beyond capacity are dropped
/// (drop-tail). Given a `mark_threshold_bytes`, it is also the DCTCP-style
/// ECN queue: an ECN-capable arrival is CE-marked when the instantaneous
/// backlog it sees on enqueue is at or above the threshold. The default
/// threshold never marks.
class FifoQueue : public QueueDiscipline {
 public:
  static constexpr std::int64_t kNeverMark =
      std::numeric_limits<std::int64_t>::max();

  explicit FifoQueue(std::int64_t capacity_bytes,
                     std::int64_t mark_threshold_bytes = kNeverMark);

  bool enqueue(const Packet& pkt, sim::SimTime now) override;
  std::optional<Packet> dequeue(sim::SimTime now) override;
  std::optional<Packet> enqueue_dequeue(const Packet& pkt,
                                        sim::SimTime now) override;
  bool empty() const override { return q_.empty(); }
  std::int64_t backlog_bytes() const override { return backlog_; }
  std::size_t backlog_packets() const override { return q_.size(); }

 private:
  std::int64_t capacity_;
  std::int64_t mark_threshold_;
  std::int64_t backlog_ = 0;
  PacketRing q_;
};

/// pFabric priority queue: dequeues the packet with the smallest priority
/// value (fewest remaining bytes), FIFO within a priority. When full, admits
/// a higher-priority arrival by evicting the lowest-priority resident, the
/// latest arrival among equals.
///
/// A vector kept sorted by priority, each arrival inserted after the
/// residents of equal priority: front() is the next packet to dequeue and
/// back() the eviction victim. Insert and dequeue are linear in the
/// backlog, which suits pFabric's shallow buffers: fig2 and datacenter_mix
/// size theirs at 36 packets.
class PfabricPriorityQueue : public QueueDiscipline {
 public:
  explicit PfabricPriorityQueue(std::int64_t capacity_bytes);

  bool enqueue(const Packet& pkt, sim::SimTime now) override;
  std::optional<Packet> dequeue(sim::SimTime now) override;
  bool empty() const override { return q_.empty(); }
  std::int64_t backlog_bytes() const override { return backlog_; }
  std::size_t backlog_packets() const override { return q_.size(); }

 private:
  std::int64_t capacity_;
  std::int64_t backlog_ = 0;
  std::vector<Packet> q_;  ///< Ascending priority, arrival order within one.
};

/// Deficit round robin (Shreedhar & Varghese): per-flow FIFOs served in a
/// round-robin of byte quanta — switch-enforced fair sharing. Used as the
/// "perfectly fair switch" baseline: even exact fairness does not interleave
/// periodic jobs, which is the gap MLTCP fills.
class DrrQueue : public QueueDiscipline {
 public:
  DrrQueue(std::int64_t capacity_bytes, std::int64_t quantum_bytes = 1500);

  bool enqueue(const Packet& pkt, sim::SimTime now) override;
  std::optional<Packet> dequeue(sim::SimTime now) override;
  bool empty() const override { return backlog_ == 0; }
  std::int64_t backlog_bytes() const override { return backlog_; }
  std::size_t backlog_packets() const override;

  std::size_t active_flows() const { return flows_.size(); }

 private:
  struct FlowState {
    std::deque<Packet> q;
    std::int64_t deficit = 0;
  };

  std::int64_t capacity_;
  std::int64_t quantum_;
  std::int64_t backlog_ = 0;
  std::map<FlowId, FlowState> flows_;
  std::deque<FlowId> round_;  ///< Active-flow service order.
};

/// RED (Floyd & Jacobson): probabilistic early drop (or ECN mark for
/// ECN-capable packets) once the EWMA queue size exceeds min_threshold,
/// ramping to certainty at max_threshold.
class RedQueue : public QueueDiscipline {
 public:
  struct Config {
    std::int64_t capacity_bytes = 256 * 1500;
    std::int64_t min_threshold_bytes = 30 * 1500;
    std::int64_t max_threshold_bytes = 90 * 1500;
    double max_probability = 0.1;
    double ewma_weight = 0.002;
    bool mark_instead_of_drop = false;  ///< ECN mode for capable packets.
    std::uint64_t seed = 31;
    /// Transmission time of a typical packet, used to decay the EWMA across
    /// idle periods (Floyd & Jacobson §4: while the queue is empty the
    /// average ages as if one small packet departed every `idle_pkt_time`).
    /// Default: 1500 B at 1 Gbps. Set to 0 to disable idle decay.
    sim::SimTime idle_pkt_time = sim::microseconds(12);
  };

  explicit RedQueue(Config cfg);

  bool enqueue(const Packet& pkt, sim::SimTime now) override;
  std::optional<Packet> dequeue(sim::SimTime now) override;
  bool empty() const override { return q_.empty(); }
  std::int64_t backlog_bytes() const override { return backlog_; }
  std::size_t backlog_packets() const override { return q_.size(); }

  double average_queue_bytes() const { return avg_; }

 private:
  Config cfg_;
  std::int64_t backlog_ = 0;
  double avg_ = 0.0;
  sim::SimTime idle_since_ = 0;  ///< When the queue went empty; -1 = busy.
  std::uint64_t rng_state_;
  PacketRing q_;
};

/// Decorator injecting i.i.d. Bernoulli packet loss in front of another
/// queue discipline. Used by the §5 fairness experiments to measure
/// throughput as a function of loss probability (Mathis et al. style).
class RandomDropQueue : public QueueDiscipline {
 public:
  /// `drop_probability` in [0, 1]; `seed` makes runs reproducible.
  RandomDropQueue(std::unique_ptr<QueueDiscipline> inner,
                  double drop_probability, std::uint64_t seed);

  bool enqueue(const Packet& pkt, sim::SimTime now) override;
  std::optional<Packet> dequeue(sim::SimTime now) override;
  bool empty() const override { return inner_->empty(); }
  std::int64_t backlog_bytes() const override {
    return inner_->backlog_bytes();
  }
  std::size_t backlog_packets() const override {
    return inner_->backlog_packets();
  }

  std::int64_t random_drops() const { return random_drops_; }

  /// Forwards the context to the wrapped queue so its congestion drops are
  /// traced under the same link identity.
  void set_trace_context(sim::Simulator* sim, const char* name,
                         std::uint64_t track) override;

  /// Changes the loss probability mid-run (e.g. to emulate a transient
  /// blackout or a flapping link).
  void set_drop_probability(double p);
  double drop_probability() const { return p_; }

 private:
  std::unique_ptr<QueueDiscipline> inner_;
  double p_;
  std::uint64_t state_;
  std::int64_t random_drops_ = 0;
};

/// Convenience factories.
QueueFactory make_droptail_factory(std::int64_t capacity_bytes);
QueueFactory make_ecn_factory(std::int64_t capacity_bytes,
                              std::int64_t mark_threshold_bytes);
QueueFactory make_pfabric_factory(std::int64_t capacity_bytes);
QueueFactory make_random_drop_factory(double drop_probability,
                                      std::int64_t capacity_bytes,
                                      std::uint64_t seed = 99);
QueueFactory make_drr_factory(std::int64_t capacity_bytes,
                              std::int64_t quantum_bytes = 1500);
QueueFactory make_red_factory(RedQueue::Config cfg = {});

}  // namespace mltcp::net
