#include "net/queue.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sim/random.hpp"
#include "telemetry/tracer.hpp"

namespace mltcp::net {

namespace {
void note_backlog(QueueStats& stats, std::int64_t backlog) {
  stats.max_backlog_bytes = std::max(stats.max_backlog_bytes, backlog);
}
}  // namespace

void QueueDiscipline::trace_drop(const Packet& pkt, sim::SimTime now) {
  if (trace_sim_ == nullptr) return;
  if (auto* t = telemetry::tracer_for(*trace_sim_,
                                      telemetry::Category::kQueue)) {
    t->instant(telemetry::Category::kQueue, "drop", now, trace_track_, "flow",
               static_cast<double>(pkt.flow), "bytes",
               static_cast<double>(pkt.size_bytes));
  }
}

void QueueDiscipline::trace_mark(const Packet& pkt, sim::SimTime now) {
  if (trace_sim_ == nullptr) return;
  if (auto* t = telemetry::tracer_for(*trace_sim_,
                                      telemetry::Category::kQueue)) {
    t->instant(telemetry::Category::kQueue, "ecn_mark", now, trace_track_,
               "flow", static_cast<double>(pkt.flow), "backlog",
               static_cast<double>(backlog_bytes()));
  }
}

// -------------------------------------------------------------------- FIFO

FifoQueue::FifoQueue(std::int64_t capacity_bytes,
                     std::int64_t mark_threshold_bytes)
    : capacity_(capacity_bytes), mark_threshold_(mark_threshold_bytes) {
  assert(capacity_bytes > 0);
  assert(mark_threshold_bytes == kNeverMark ||
         (mark_threshold_bytes > 0 && mark_threshold_bytes <= capacity_bytes));
}

bool FifoQueue::enqueue(const Packet& pkt, sim::SimTime now) {
  if (backlog_ + pkt.size_bytes > capacity_) {
    ++stats_.dropped_packets;
    trace_drop(pkt, now);
    return false;
  }
  Packet& stored = q_.push_back(pkt);
  // DCTCP marks based on the instantaneous queue occupancy seen on arrival.
  if (pkt.ecn_capable && backlog_ >= mark_threshold_) {
    stored.ce = true;
    ++stats_.marked_packets;
    trace_mark(stored, now);
  }
  backlog_ += pkt.size_bytes;
  ++stats_.enqueued_packets;
  note_backlog(stats_, backlog_);
  return true;
}

std::optional<Packet> FifoQueue::dequeue(sim::SimTime /*now*/) {
  if (q_.empty()) return std::nullopt;
  Packet pkt = q_.front();
  q_.pop_front();
  backlog_ -= pkt.size_bytes;
  return pkt;
}

std::optional<Packet> FifoQueue::enqueue_dequeue(const Packet& pkt,
                                                 sim::SimTime now) {
  if (!q_.empty()) {
    if (!enqueue(pkt, now)) return std::nullopt;
    return dequeue(now);
  }
  // Empty queue: backlog 0 is below any (positive) mark threshold, so no CE
  // mark; admission reduces to a size check and the dequeued packet is the
  // arrival itself — skip the ring round-trip.
  if (pkt.size_bytes > capacity_) {
    ++stats_.dropped_packets;
    trace_drop(pkt, now);
    return std::nullopt;
  }
  ++stats_.enqueued_packets;
  note_backlog(stats_, pkt.size_bytes);
  return pkt;
}

// --------------------------------------------------------- PfabricPriority

PfabricPriorityQueue::PfabricPriorityQueue(std::int64_t capacity_bytes)
    : capacity_(capacity_bytes) {
  assert(capacity_bytes > 0);
}

bool PfabricPriorityQueue::enqueue(const Packet& pkt, sim::SimTime now) {
  while (backlog_ + pkt.size_bytes > capacity_ && !q_.empty()) {
    // Evict the lowest-priority resident (largest remaining bytes) — but only
    // if the arrival beats it; otherwise drop the arrival.
    const Packet& worst = q_.back();
    if (worst.priority <= pkt.priority) {
      ++stats_.dropped_packets;
      trace_drop(pkt, now);
      return false;
    }
    backlog_ -= worst.size_bytes;
    ++stats_.dropped_packets;
    trace_drop(worst, now);
    q_.pop_back();
  }
  if (backlog_ + pkt.size_bytes > capacity_) {
    ++stats_.dropped_packets;
    trace_drop(pkt, now);
    return false;
  }
  const auto after_equals = std::upper_bound(
      q_.begin(), q_.end(), pkt.priority,
      [](std::int64_t priority, const Packet& resident) {
        return priority < resident.priority;
      });
  q_.insert(after_equals, pkt);
  backlog_ += pkt.size_bytes;
  ++stats_.enqueued_packets;
  note_backlog(stats_, backlog_);
  return true;
}

std::optional<Packet> PfabricPriorityQueue::dequeue(sim::SimTime /*now*/) {
  if (q_.empty()) return std::nullopt;
  const Packet pkt = q_.front();
  q_.erase(q_.begin());
  backlog_ -= pkt.size_bytes;
  return pkt;
}

// -------------------------------------------------------------------- DRR

DrrQueue::DrrQueue(std::int64_t capacity_bytes, std::int64_t quantum_bytes)
    : capacity_(capacity_bytes), quantum_(quantum_bytes) {
  assert(capacity_bytes > 0 && quantum_bytes > 0);
}

bool DrrQueue::enqueue(const Packet& pkt, sim::SimTime now) {
  if (backlog_ + pkt.size_bytes > capacity_) {
    ++stats_.dropped_packets;
    trace_drop(pkt, now);
    return false;
  }
  auto [it, inserted] = flows_.try_emplace(pkt.flow);
  if (it->second.q.empty()) {
    it->second.deficit = 0;
    round_.push_back(pkt.flow);
  }
  it->second.q.push_back(pkt);
  backlog_ += pkt.size_bytes;
  ++stats_.enqueued_packets;
  stats_.max_backlog_bytes = std::max(stats_.max_backlog_bytes, backlog_);
  return true;
}

std::optional<Packet> DrrQueue::dequeue(sim::SimTime /*now*/) {
  while (!round_.empty()) {
    const FlowId id = round_.front();
    auto it = flows_.find(id);
    if (it == flows_.end() || it->second.q.empty()) {
      round_.pop_front();
      continue;
    }
    FlowState& flow = it->second;
    if (flow.deficit < flow.q.front().size_bytes) {
      // Not enough credit: move to the back of the round with a new quantum.
      flow.deficit += quantum_;
      round_.pop_front();
      round_.push_back(id);
      continue;
    }
    Packet pkt = flow.q.front();
    flow.q.pop_front();
    flow.deficit -= pkt.size_bytes;
    backlog_ -= pkt.size_bytes;
    if (flow.q.empty()) {
      flows_.erase(it);
      round_.pop_front();
    }
    return pkt;
  }
  return std::nullopt;
}

std::size_t DrrQueue::backlog_packets() const {
  std::size_t n = 0;
  for (const auto& [id, flow] : flows_) n += flow.q.size();
  return n;
}

// -------------------------------------------------------------------- RED

RedQueue::RedQueue(Config cfg) : cfg_(cfg), rng_state_(cfg.seed | 1) {
  assert(cfg_.capacity_bytes > 0);
  assert(cfg_.min_threshold_bytes < cfg_.max_threshold_bytes);
  assert(cfg_.max_threshold_bytes <= cfg_.capacity_bytes);
}

bool RedQueue::enqueue(const Packet& pkt, sim::SimTime now) {
  // Arrival after an idle period: the EWMA only updates on arrivals, so
  // without decay a stale high average from the last burst keeps
  // early-dropping on a near-empty queue. Age it as if `m` typical packets
  // had departed while the queue sat empty.
  if (idle_since_ >= 0 && cfg_.idle_pkt_time > 0 && now > idle_since_) {
    const double m = static_cast<double>(now - idle_since_) /
                     static_cast<double>(cfg_.idle_pkt_time);
    avg_ *= std::pow(1.0 - cfg_.ewma_weight, m);
    // Decay applied up to `now`; if this arrival ends up dropped the queue
    // stays idle from here on.
    idle_since_ = now;
  }

  avg_ = (1.0 - cfg_.ewma_weight) * avg_ +
         cfg_.ewma_weight * static_cast<double>(backlog_);

  bool early_action = false;
  if (avg_ >= static_cast<double>(cfg_.max_threshold_bytes)) {
    early_action = true;
  } else if (avg_ >= static_cast<double>(cfg_.min_threshold_bytes)) {
    const double fraction =
        (avg_ - static_cast<double>(cfg_.min_threshold_bytes)) /
        static_cast<double>(cfg_.max_threshold_bytes -
                            cfg_.min_threshold_bytes);
    early_action =
        sim::splitmix64_uniform(rng_state_) < fraction * cfg_.max_probability;
  }

  bool mark = false;
  if (early_action) {
    if (cfg_.mark_instead_of_drop && pkt.ecn_capable) {
      mark = true;
      ++stats_.marked_packets;
      trace_mark(pkt, now);
    } else {
      ++stats_.dropped_packets;
      trace_drop(pkt, now);
      return false;
    }
  }

  if (backlog_ + pkt.size_bytes > cfg_.capacity_bytes) {
    ++stats_.dropped_packets;
    trace_drop(pkt, now);
    return false;
  }
  backlog_ += pkt.size_bytes;
  Packet& stored = q_.push_back(pkt);
  if (mark) stored.ce = true;
  idle_since_ = -1;
  ++stats_.enqueued_packets;
  stats_.max_backlog_bytes = std::max(stats_.max_backlog_bytes, backlog_);
  return true;
}

std::optional<Packet> RedQueue::dequeue(sim::SimTime now) {
  if (q_.empty()) return std::nullopt;
  Packet pkt = q_.front();
  q_.pop_front();
  backlog_ -= pkt.size_bytes;
  if (q_.empty()) idle_since_ = now;
  return pkt;
}

// ------------------------------------------------------------- RandomDrop

RandomDropQueue::RandomDropQueue(std::unique_ptr<QueueDiscipline> inner,
                                 double drop_probability, std::uint64_t seed)
    : inner_(std::move(inner)), p_(drop_probability), state_(seed | 1) {
  assert(inner_ != nullptr);
  assert(drop_probability >= 0.0 && drop_probability <= 1.0);
}

bool RandomDropQueue::enqueue(const Packet& pkt, sim::SimTime now) {
  // splitmix64 step; cheap and adequate for Bernoulli drops.
  const double u = sim::splitmix64_uniform(state_);
  // Only data packets are subject to injected loss; dropping ACKs would test
  // cumulative-ACK robustness, not congestion response.
  if (pkt.type == PacketType::kData && u < p_) {
    ++random_drops_;
    ++stats_.dropped_packets;
    trace_drop(pkt, now);
    return false;
  }
  // Mirror the inner queue's outcome so this decorator's stats cover both
  // injected and congestion drops.
  const bool admitted = inner_->enqueue(pkt, now);
  if (admitted) {
    ++stats_.enqueued_packets;
  } else {
    ++stats_.dropped_packets;
  }
  return admitted;
}

std::optional<Packet> RandomDropQueue::dequeue(sim::SimTime now) {
  return inner_->dequeue(now);
}

void RandomDropQueue::set_trace_context(sim::Simulator* sim, const char* name,
                                        std::uint64_t track) {
  QueueDiscipline::set_trace_context(sim, name, track);
  // Congestion drops happen inside the wrapped queue; give it the same
  // identity so they are traced too.
  inner_->set_trace_context(sim, name, track);
}

void RandomDropQueue::set_drop_probability(double p) {
  assert(p >= 0.0 && p <= 1.0);
  p_ = p;
}

// ----------------------------------------------------------------- factories

QueueFactory make_droptail_factory(std::int64_t capacity_bytes) {
  return [capacity_bytes] {
    return std::make_unique<FifoQueue>(capacity_bytes);
  };
}

QueueFactory make_ecn_factory(std::int64_t capacity_bytes,
                              std::int64_t mark_threshold_bytes) {
  return [=] {
    return std::make_unique<FifoQueue>(capacity_bytes, mark_threshold_bytes);
  };
}

QueueFactory make_pfabric_factory(std::int64_t capacity_bytes) {
  return [capacity_bytes] {
    return std::make_unique<PfabricPriorityQueue>(capacity_bytes);
  };
}

QueueFactory make_drr_factory(std::int64_t capacity_bytes,
                              std::int64_t quantum_bytes) {
  return [=] {
    return std::make_unique<DrrQueue>(capacity_bytes, quantum_bytes);
  };
}

QueueFactory make_red_factory(RedQueue::Config cfg) {
  return [cfg] { return std::make_unique<RedQueue>(cfg); };
}

QueueFactory make_random_drop_factory(double drop_probability,
                                      std::int64_t capacity_bytes,
                                      std::uint64_t seed) {
  return [=] {
    return std::make_unique<RandomDropQueue>(
        std::make_unique<FifoQueue>(capacity_bytes), drop_probability,
        seed);
  };
}

}  // namespace mltcp::net
