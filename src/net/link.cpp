#include "net/link.hpp"

#include <cassert>
#include <utility>

#include "net/node.hpp"
#include "sim/random.hpp"
#include "telemetry/tracer.hpp"

namespace mltcp::net {

Link::Link(sim::Simulator& simulator, std::string name, double rate_bps,
           sim::SimTime propagation_delay,
           std::unique_ptr<QueueDiscipline> queue, Node* destination)
    : sim_(simulator),
      name_(std::move(name)),
      rate_bps_(rate_bps),
      prop_delay_(propagation_delay),
      queue_(std::move(queue)),
      dst_(destination),
      track_(telemetry::track_link(simulator.allocate_trace_ordinal())),
      rank_(simulator.allocate_link_rank()),
      tx_timer_(simulator, [this] { on_transmission_done(); }) {
  assert(rate_bps_ > 0.0);
  assert(queue_ != nullptr);
  assert(dst_ != nullptr);
  queue_->set_trace_context(&sim_, name_.c_str(), track_);
}

void Link::send(const Packet& pkt) {
  // Fault gate: two flag tests and a double compare on the healthy path.
  if (!up_ || blackhole_) {
    ++fault_drops_;
    return;
  }
  if (fault_p_ > 0.0 && next_fault_uniform() < fault_p_) {
    ++fault_drops_;
    return;
  }
  if (!busy()) {
    // Transmitter idle: the packet bypasses the queue discipline's ordering
    // but still runs through its admission/marking logic.
    if (auto next = queue_->enqueue_dequeue(pkt, sim_.now())) {
      start_transmission(*next);
    }
    return;
  }
  // The first packet to wait behind the transmitter arms its tx-done.
  if (queue_->enqueue(pkt, sim_.now()) && !tx_timer_.pending()) {
    tx_timer_.arm_at(busy_until_);
  }
}

void Link::start_transmission(const Packet& pkt) {
  const sim::SimTime now = sim_.now();
  busy_until_ = now + sim::transmission_time(pkt.size_bytes, rate_bps_);
  for (const auto& obs : observers_) obs(pkt, now);
  if (auto* t = telemetry::tracer_for(sim_, telemetry::Category::kLink)) {
    t->counter(telemetry::Category::kLink, "backlog_bytes", now, track_,
               static_cast<double>(queue_->backlog_bytes()));
  }
  busy_time_ += busy_until_ - now;
  bytes_tx_ += pkt.size_bytes;
  ++packets_tx_;
  tx_pkt_ = pkt;
  // The delivery's time and its canonical tiebreak key are known now. A cut
  // link hands both to its sink; a local link pushes the event at that key,
  // so the sharded import merge and the serial queue share one total order.
  const sim::SimTime when = busy_until_ + prop_delay_;
  const std::uint64_t key = delivery_key(delivery_seq_++);
  if (delivery_sink_ != nullptr) {
    delivery_sink_->deliver(when, key, dst_, pkt);
    return;
  }
  // Each packet in flight is its own event, so the closure carries the
  // packet by value — it must stay within the inline-callback budget or
  // every hop would heap-allocate (the engine's dominant cost before this
  // design).
  auto deliver = [dst = dst_, pkt] { dst->receive(pkt); };
  static_assert(sizeof(deliver) <= sim::kInlineCallbackCapacity,
                "propagation closure outgrew the inline-callback budget");
  delivery_queue_ = &sim_.event_queue();
  delivery_id_ =
      delivery_queue_->schedule_keyed(when, key, std::move(deliver));
}

void Link::on_transmission_done() {
  auto next = queue_->dequeue(sim_.now());
  if (!next.has_value()) return;
  start_transmission(*next);
  if (!queue_->empty()) tx_timer_.arm_at(busy_until_);
}

void Link::set_up(bool up) {
  if (up_ == up) return;
  up_ = up;
  if (up) return;  // Healing needs no local cleanup; senders re-probe.
  // The cut loses the packet on the transmitter and everything buffered.
  if (busy()) {
    const sim::SimTime now = sim_.now();
    tx_timer_.cancel();
    --delivery_seq_;  // Its wire ordinal goes to the next packet.
    if (delivery_sink_ != nullptr) {
      delivery_sink_->retract(delivery_key(delivery_seq_));
    } else {
      delivery_queue_->cancel(delivery_id_);
    }
    bytes_tx_ -= tx_pkt_.size_bytes;
    --packets_tx_;
    busy_time_ -= busy_until_ - now;
    busy_until_ = now - 1;
    ++fault_drops_;
  }
  while (queue_->dequeue(sim_.now()).has_value()) ++fault_drops_;
}

void Link::set_rate_bps(double rate_bps) {
  assert(rate_bps > 0.0);
  rate_bps_ = rate_bps;
}

void Link::set_fault_drop(double probability, std::uint64_t seed) {
  assert(probability >= 0.0 && probability <= 1.0);
  fault_p_ = probability;
  if (probability > 0.0) fault_rng_ = seed;
}

double Link::next_fault_uniform() {
  // splitmix64: deterministic per-link stream, independent of global state.
  return sim::splitmix64_uniform(fault_rng_);
}

double Link::utilization(sim::SimTime now) const {
  if (now <= 0) return 0.0;
  // Leave out the part of the current serialization still ahead of `now`.
  const sim::SimTime ahead = busy_until_ > now ? busy_until_ - now : 0;
  return static_cast<double>(busy_time_ - ahead) / static_cast<double>(now);
}

}  // namespace mltcp::net
