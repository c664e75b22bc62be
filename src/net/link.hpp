#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace mltcp::net {

class Node;

/// Cross-shard egress seam for sharded (PDES) execution: when a link's
/// destination lives in a different shard than its source, the coordinator
/// installs a sink. Such a cut link hands each packet to the sink when its
/// serialization starts, the instant a local link pushes its delivery event.
/// `when` is the delivery timestamp (serialization end + propagation delay),
/// which is strictly increasing per link because serialization time is
/// positive — the monotonicity the conservative synchronization protocol
/// relies on. `key` is the link's canonical delivery key for this packet —
/// the same value the serial engine would use as the event's tiebreak, so
/// the consumer shard can merge imports against its local queue in exactly
/// the serial total order.
class DeliverySink {
 public:
  virtual ~DeliverySink() = default;
  virtual void deliver(sim::SimTime when, std::uint64_t key, Node* dst,
                       const Packet& pkt) = 0;
  /// Withdraws the newest delivery, keyed `key`: a cut lost the packet
  /// still serializing. Cuts apply at a global barrier with every shard
  /// parked, and the delivery is due after the barrier, so it has not run.
  virtual void retract(std::uint64_t key) = 0;
};

/// Unidirectional point-to-point link: a serializing transmitter feeding a
/// propagation delay, with a queue discipline buffering while the
/// transmitter is busy.
///
/// A hop costs one event: the delivery, pushed when serialization starts,
/// since its time (start + serialization + propagation) is known then. The
/// transmitter is busy through `busy_until_`, the instant serialization
/// ends; the tx-done timer is armed at that instant only while packets wait
/// behind it, so a packet that finds the transmitter idle costs no second
/// event. A cut link in a sharded run hands the delivery to its DeliverySink
/// at the same instant instead.
class Link {
 public:
  /// Called for every packet as it begins transmission; used for bandwidth
  /// traces. The packet and the transmission start time are passed.
  using TxObserver = std::function<void(const Packet&, sim::SimTime)>;

  Link(sim::Simulator& simulator, std::string name, double rate_bps,
       sim::SimTime propagation_delay, std::unique_ptr<QueueDiscipline> queue,
       Node* destination);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Offers a packet for transmission. Queues (or drops, per the queue
  /// discipline) if the transmitter is busy.
  void send(const Packet& pkt);

  double rate_bps() const { return rate_bps_; }
  sim::SimTime propagation_delay() const { return prop_delay_; }
  const std::string& name() const { return name_; }
  Node* destination() const { return dst_; }

  // -- Administrative / fault state (driven by the scenario engine) --------

  bool up() const { return up_; }
  /// Takes the link down or brings it back up. Going down loses the packet
  /// on the transmitter — one whose serialization ends at or after the cut
  /// instant, since scenario events apply first at an instant — drains the
  /// queue (all counted as fault drops) and silently drops every subsequent
  /// send() until the link comes back. Packets already in propagation still
  /// deliver — they left the link before the cut. The lost packet leaves
  /// the counters, and the part of its serialization after the cut leaves
  /// utilization().
  void set_up(bool up);

  /// Renegotiates the line rate mid-run (e.g. an autoneg downshift).
  /// Applies from the next serialization; the packet currently on the
  /// transmitter finishes at the old rate.
  void set_rate_bps(double rate_bps);

  /// Blackhole fault: the link stays administratively up (routes keep
  /// pointing at it) but deterministically drops every offered packet.
  /// Models a forwarding-plane fault the control plane has not noticed.
  void set_blackhole(bool on) { blackhole_ = on; }
  bool blackhole() const { return blackhole_; }

  /// Probabilistic drop-burst fault: each offered packet is dropped with
  /// `probability`, decided by a splitmix64 stream seeded here. Pass 0 to
  /// clear. The stream is only advanced while the fault is active, so runs
  /// without faults consume no randomness and stay byte-identical.
  void set_fault_drop(double probability, std::uint64_t seed);
  double fault_drop_probability() const { return fault_p_; }

  /// Packets lost to down/blackhole/drop-burst faults (including packets
  /// drained from the queue when the link went down).
  std::int64_t fault_drops() const { return fault_drops_; }

  QueueDiscipline& queue() { return *queue_; }
  const QueueDiscipline& queue() const { return *queue_; }

  /// Registers an additional transmission observer.
  void add_tx_observer(TxObserver obs) { observers_.push_back(std::move(obs)); }

  /// Packets (bytes) that finished serializing by now: the packet still on
  /// the transmitter counts from the instant its serialization ends.
  std::int64_t bytes_transmitted() const {
    return bytes_tx_ - (serializing() ? tx_pkt_.size_bytes : 0);
  }
  std::int64_t packets_transmitted() const {
    return packets_tx_ - (serializing() ? 1 : 0);
  }

  /// Fraction of [0, now] the transmitter spent serializing; `now` is the
  /// current time.
  double utilization(sim::SimTime now) const;

  /// Telemetry track id (track_link namespace) shared with the queue.
  std::uint64_t trace_track() const { return track_; }

  /// Routes deliveries to `sink` (cross-shard delivery) instead of the
  /// local event queue; null restores local delivery. Installed by the PDES
  /// coordinator on cut links only, before the run starts; removing it ends
  /// the run (a delivery the sink holds then never runs).
  void set_delivery_sink(DeliverySink* sink) { delivery_sink_ = sink; }

 private:
  void start_transmission(const Packet& pkt);
  void on_transmission_done();
  double next_fault_uniform();

  /// A packet holds the transmitter through the instant its serialization
  /// ends, so an arrival at that instant queues and the tx-done serves it
  /// after the instant's deliveries, in the order a tx-done per packet gave.
  bool busy() const { return sim_.now() <= busy_until_; }
  /// The packet on the transmitter has not finished serializing.
  bool serializing() const { return sim_.now() < busy_until_; }

  /// Canonical tiebreak key of wire ordinal `seq`: (link rank + 1) << 40 |
  /// per-link FIFO ordinal. Below EventQueue::kOrdinalBand, so at equal
  /// timestamps deliveries run before ordinary events, ordered among
  /// themselves by link construction order then wire order — a total order
  /// that depends only on the model, never on scheduling history, which is
  /// what lets sharded runs reproduce serial output bit-for-bit (the
  /// serial FIFO ordinal is partition-dependent; this key is not).
  std::uint64_t delivery_key(std::uint64_t seq) const {
    return (static_cast<std::uint64_t>(rank_) + 1) << 40 | seq;
  }

  sim::Simulator& sim_;
  std::string name_;
  double rate_bps_;
  sim::SimTime prop_delay_;
  std::unique_ptr<QueueDiscipline> queue_;
  Node* dst_;
  std::uint64_t track_;
  std::uint32_t rank_;             ///< Dense construction ordinal.
  std::uint64_t delivery_seq_ = 0;
  DeliverySink* delivery_sink_ = nullptr;

  /// Tx-done at `busy_until_`: armed only while packets wait behind the
  /// transmitter, rearmed in place.
  sim::Timer tx_timer_;
  Packet tx_pkt_{};  ///< The packet on the transmitter, or the last one.
  /// Instant the packet in `tx_pkt_` finishes serializing.
  sim::SimTime busy_until_ = -1;
  /// The delivery a local link pushed for `tx_pkt_`, and the shard queue it
  /// went to, so a cut applied from the coordinator thread can cancel it.
  sim::EventId delivery_id_ = sim::kInvalidEventId;
  sim::EventQueue* delivery_queue_ = nullptr;

  bool up_ = true;
  bool blackhole_ = false;
  double fault_p_ = 0.0;
  std::uint64_t fault_rng_ = 0;
  std::int64_t fault_drops_ = 0;
  std::int64_t bytes_tx_ = 0;
  std::int64_t packets_tx_ = 0;
  sim::SimTime busy_time_ = 0;
  std::vector<TxObserver> observers_;
};

}  // namespace mltcp::net
