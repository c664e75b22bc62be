#include "flowsim/flow_simulator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/mltcp.hpp"
#include "sim/ring.hpp"
#include "telemetry/tracer.hpp"

namespace mltcp::flowsim {

namespace {

/// Bytes left below which a message counts as fully serialized. Predictions
/// arm the timer one nanosecond past the exact drain time, so remaining
/// lands at or below zero; the epsilon only absorbs float drift.
constexpr double kDrainEpsilon = 1e-3;

/// Upper bound on how stale an MLTCP channel's aggressiveness weight may
/// get: while a channel is mid-message its drain-heap key is at most this
/// far ahead, so F(bytes_ratio) tracks the message's progress even when no
/// arrival or completion forces a recompute. The packet backend updates the
/// gain every ACK; this is the fluid analogue at a coarser grain.
constexpr sim::SimTime kWeightRefresh = sim::milliseconds(20);

/// What a faulted link can actually carry, in bytes/second. Down and
/// blackholed links carry nothing (routes may still point at them); a
/// drop-burst fault derates the link to the goodput a loss-recovering
/// transport sustains across it.
double effective_capacity(const net::Link& link) {
  if (!link.up() || link.blackhole()) return 0.0;
  const double keep = 1.0 - link.fault_drop_probability();
  return keep > 0.0 ? link.rate_bps() * keep / 8.0 : 0.0;
}

/// Walks the data path src -> dst the way a packet would travel it: host
/// uplink first, then each switch's ECMP choice for this flow id
/// (Switch::route_for_flow — the identical hash the packet backend runs),
/// until the destination host. Returns false when no complete path exists.
bool resolve_route(net::Host* src, net::Host* dst, net::FlowId flow,
                   std::size_t max_hops,
                   std::vector<const net::Link*>& route,
                   sim::SimTime& delay) {
  route.clear();
  delay = 0;
  net::Link* link = src->uplink();
  const net::NodeId dst_id = dst->id();
  std::size_t hops = 0;
  while (link != nullptr) {
    route.push_back(link);
    delay += link->propagation_delay();
    net::Node* next = link->destination();
    if (next == dst) return true;
    auto* sw = dynamic_cast<net::Switch*>(next);
    if (sw == nullptr) return false;      // Landed on the wrong host.
    if (++hops > max_hops) return false;  // Transient routing loop.
    link = sw->route_for_flow(dst_id, flow);
  }
  return false;  // No uplink, or a switch had no route (fault repair).
}

}  // namespace

/// One channel of the flow-level backend: a FIFO of messages, the head of
/// which is in flight as a fluid flow. The channel's remaining-bytes account
/// settles lazily — only when its own rate changes, its weight is read, or
/// it completes — and both settle instants and rate values are invariant
/// between the incremental and full-recompute allocation modes, which is
/// what keeps the two bit-identical.
class FlowSimulator::FlowChannel final : public workload::Channel {
 public:
  enum class State {
    kIdle,      ///< No message in flight.
    kSending,   ///< Head message serializing at rate_.
    kDraining,  ///< All bytes serialized; last byte propagating.
  };

  FlowChannel(FlowSimulator& owner, net::Host* src, net::Host* dst,
              net::FlowId id, std::int32_t ordinal,
              std::shared_ptr<const core::AggressivenessFunction> f)
      : owner_(owner),
        src_(src),
        dst_(dst),
        id_(id),
        ordinal_(ordinal),
        f_(std::move(f)) {}

  void send_message(std::int64_t bytes, Completion on_complete) override {
    if (bytes <= 0) {
      throw std::invalid_argument("flowsim flow " + std::to_string(id_) +
                                  ": message of " + std::to_string(bytes) +
                                  " bytes is not positive");
    }
    queue_.push_back(Message{bytes, std::move(on_complete)});
    ++owner_.stats_.messages_posted;
    // A busy channel needs no recompute: the new message queues FIFO
    // behind the head and the allocation is untouched until it starts.
    if (state_ == State::kIdle && !in_start_queue_) {
      in_start_queue_ = true;
      owner_.start_queue_.push_back(this);
      owner_.schedule_recompute();
    }
  }

  net::FlowId id() const override { return id_; }

 private:
  friend class FlowSimulator;

  struct Message {
    std::int64_t bytes = 0;
    Completion done;
  };

  /// Current max-min weight: F(bytes_ratio) of the in-flight message for
  /// MLTCP channels, the neutral 1.0 otherwise. Clamped away from zero so a
  /// pathological F cannot starve the water-filling loop. Reads remaining_,
  /// so the channel must be settled to "now" first.
  double current_weight() const {
    if (f_ == nullptr) return 1.0;
    const double ratio =
        total_ > 0.0 ? std::clamp((total_ - remaining_) / total_, 0.0, 1.0)
                     : 1.0;
    return std::max((*f_)(ratio), 1e-6);
  }

  FlowSimulator& owner_;
  net::Host* src_;
  net::Host* dst_;
  net::FlowId id_;
  std::int32_t ordinal_;  ///< Creation index: the canonical channel order.
  std::shared_ptr<const core::AggressivenessFunction> f_;

  sim::Ring<Message> queue_;  ///< Head = in-flight message (when busy).
  State state_ = State::kIdle;
  double total_ = 0.0;      ///< Bytes of the head message.
  double remaining_ = 0.0;  ///< Bytes not yet sent, as of settled_at_.
  double rate_ = 0.0;       ///< Allocated rate, bytes/second.
  double new_rate_ = 0.0;   ///< Water-filling output staging.
  double weight_ = 1.0;     ///< Weight used by the current allocation.
  sim::SimTime settled_at_ = 0;   ///< Instant remaining_ is accurate for.
  sim::SimTime drain_until_ = 0;  ///< Last-byte arrival (kDraining).
  sim::SimTime next_refresh_ = 0;  ///< MLTCP weight-refresh deadline.
  bool stalled_ = false;  ///< Route dead/unroutable; waiting on topology.
  bool in_start_queue_ = false;
  bool frozen_ = false;      ///< Water-filling scratch.
  bool in_members_ = false;  ///< Present in the per-link member lists.
  std::uint32_t visit_epoch_ = 0;  ///< Dirty-closure BFS mark.

  /// Resolved route as a (base, len) span into the owner's route_pool_
  /// (dense link indices) and slot_pool_ (member-list positions).
  std::int32_t route_base_ = 0;
  std::int32_t route_len_ = 0;
  std::int32_t route_cap_ = 0;
  sim::SimTime route_delay_ = 0;  ///< Sum of propagation delays en route.
  bool route_valid_ = false;

  std::int32_t busy_pos_ = -1;  ///< Slot in busy_ (-1 = not busy).
};

FlowSimulator::FlowSimulator(sim::Simulator& simulator,
                             net::Topology& topology, FlowSimConfig cfg)
    : sim_(simulator),
      topo_(topology),
      cfg_(cfg),
      timer_(simulator, [this] { on_timer(); }) {
  topo_.set_change_hook([this] {
    routes_dirty_ = true;
    schedule_recompute();
  });
}

FlowSimulator::~FlowSimulator() { topo_.set_change_hook({}); }

workload::Channel* FlowSimulator::create_channel(
    const workload::ChannelSpec& spec) {
  assert(spec.src != nullptr && spec.dst != nullptr);
  // Probe the congestion-control factory once: an MLTCP-augmented
  // controller carries the aggressiveness function the fluid allocation
  // needs; everything else is packet-level mechanism the fluid model
  // abstracts away — window arithmetic (Reno/Cubic/DCTCP/Swift) and
  // rate-based state machines (BBR's bandwidth filter, Gemini's dual loop)
  // alike, since at fluid fidelity both reduce to a max-min weight.
  std::shared_ptr<const core::AggressivenessFunction> f;
  if (spec.cc) {
    if (const auto probe = spec.cc(); probe != nullptr) {
      if (const auto* gain =
              dynamic_cast<const core::MltcpGain*>(&probe->window_gain())) {
        f = gain->function_ptr();
      }
    }
  }
  const auto ordinal = static_cast<std::int32_t>(channels_.size());
  channels_.push_back(std::make_unique<FlowChannel>(
      *this, spec.src, spec.dst, spec.id, ordinal, std::move(f)));
  return channels_.back().get();
}

std::vector<FlowRate> FlowSimulator::current_rates() const {
  std::vector<FlowRate> out;
  for (const FlowChannel* ch : busy_) {
    if (ch->state_ != FlowChannel::State::kSending) continue;
    out.push_back(FlowRate{ch->id_, ch->rate_ * 8.0, ch->weight_});
  }
  std::sort(out.begin(), out.end(),
            [](const FlowRate& a, const FlowRate& b) { return a.flow < b.flow; });
  return out;
}

std::vector<FlowRate> FlowSimulator::reference_rates() const {
  // Gather sending channels in creation order — the same canonical order
  // the incremental path seeds its water-fill in.
  struct Ref {
    const FlowChannel* ch = nullptr;
    double rate = 0.0;
    bool frozen = false;
  };
  std::vector<Ref> refs;
  for (const auto& owned : channels_) {
    const FlowChannel* ch = owned.get();
    if (ch->state_ != FlowChannel::State::kSending) continue;
    refs.push_back(Ref{ch, 0.0, false});
  }

  const std::size_t nl = link_ptrs_.size();
  std::vector<double> residual(nl, 0.0);
  std::vector<double> wsum(nl, 0.0);
  std::vector<std::int32_t> active(nl, 0);
  std::vector<std::uint8_t> seen(nl, 0);
  std::vector<std::vector<std::size_t>> members(nl);
  std::vector<std::int32_t> used;

  std::size_t unfrozen = 0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const FlowChannel* ch = refs[i].ch;
    // Stalled channels hold rate zero by fiat, outside the water-fill.
    if (ch->stalled_ || !ch->route_valid_) continue;
    ++unfrozen;
    for (std::int32_t h = 0; h < ch->route_len_; ++h) {
      const std::int32_t li = route_pool_[ch->route_base_ + h];
      const auto l = static_cast<std::size_t>(li);
      if (!seen[l]) {
        seen[l] = 1;
        used.push_back(li);
        // Capacities read fresh off the links, independent of the cached
        // link_capacity_ array — a stale cache shows up as a differential
        // failure instead of hiding.
        residual[l] = effective_capacity(*link_ptrs_[l]);
      }
      active[l] += 1;
      wsum[l] += ch->weight_;
      members[l].push_back(i);
    }
  }

  while (unfrozen > 0) {
    double min_share = std::numeric_limits<double>::infinity();
    std::int32_t bottleneck = -1;
    for (const std::int32_t li : used) {
      const auto l = static_cast<std::size_t>(li);
      if (active[l] <= 0) continue;
      const double share = std::max(residual[l], 0.0) / wsum[l];
      if (share < min_share) {
        min_share = share;
        bottleneck = li;
      }
    }
    assert(bottleneck >= 0 && "unfrozen flows imply an unfrozen link");
    if (bottleneck < 0) break;
    for (const std::size_t idx : members[static_cast<std::size_t>(bottleneck)]) {
      Ref& r = refs[idx];
      if (r.frozen) continue;
      r.frozen = true;
      r.rate = r.ch->weight_ * min_share;
      --unfrozen;
      for (std::int32_t h = 0; h < r.ch->route_len_; ++h) {
        const auto l =
            static_cast<std::size_t>(route_pool_[r.ch->route_base_ + h]);
        residual[l] -= r.rate;
        wsum[l] -= r.ch->weight_;
        active[l] -= 1;
      }
    }
  }

  std::vector<FlowRate> out;
  out.reserve(refs.size());
  for (const Ref& r : refs) {
    out.push_back(FlowRate{r.ch->id_, r.rate * 8.0, r.ch->weight_});
  }
  std::sort(out.begin(), out.end(),
            [](const FlowRate& a, const FlowRate& b) { return a.flow < b.flow; });
  return out;
}

void FlowSimulator::schedule_recompute() {
  // A firing in progress absorbs the request: the posts and topology
  // changes its completion callbacks make enter its own allocation.
  if (!in_recompute_) timer_.arm(0);
}

void FlowSimulator::settle_channel(FlowChannel* ch, sim::SimTime now) {
  const sim::SimTime dt = now - ch->settled_at_;
  ch->settled_at_ = now;
  if (dt <= 0) return;
  if (ch->state_ != FlowChannel::State::kSending || ch->rate_ <= 0.0) return;
  ch->remaining_ -= ch->rate_ * sim::to_seconds(dt);
  if (ch->remaining_ < 0.0) ch->remaining_ = 0.0;
}

void FlowSimulator::ensure_link_arrays() {
  const auto& links = topo_.links();
  if (link_ptrs_.size() == links.size()) return;
  assert(links.size() > link_ptrs_.size() && "topology links are append-only");
  const std::size_t n = links.size();
  link_index_.reserve(n);
  for (std::size_t i = link_ptrs_.size(); i < n; ++i) {
    link_ptrs_.push_back(links[i].get());
    link_index_.emplace(links[i].get(), static_cast<std::int32_t>(i));
  }
  link_capacity_.resize(n, 0.0);
  link_members_.resize(n);
  link_residual_.resize(n, 0.0);
  link_weight_sum_.resize(n, 0.0);
  link_active_.resize(n, 0);
  link_dirty_.resize(n, 0);
  refresh_capacities();
}

void FlowSimulator::refresh_capacities() {
  for (std::size_t i = 0; i < link_ptrs_.size(); ++i) {
    link_capacity_[i] = effective_capacity(*link_ptrs_[i]);
  }
}

bool FlowSimulator::resolve_route_span(FlowChannel* ch) {
  std::vector<const net::Link*> links;
  sim::SimTime delay = 0;
  const bool ok = resolve_route(ch->src_, ch->dst_, ch->id_,
                                topo_.links().size(), links, delay);
  ch->route_delay_ = delay;
  if (!ok) {
    ch->route_len_ = 0;
    ch->route_valid_ = false;
    return false;
  }
  const auto len = static_cast<std::int32_t>(links.size());
  if (len > ch->route_cap_) {
    ch->route_base_ = static_cast<std::int32_t>(route_pool_.size());
    route_pool_.resize(route_pool_.size() + static_cast<std::size_t>(len));
    slot_pool_.resize(slot_pool_.size() + static_cast<std::size_t>(len), -1);
    ch->route_cap_ = len;
  }
  ch->route_len_ = len;
  for (std::int32_t h = 0; h < len; ++h) {
    route_pool_[ch->route_base_ + h] = link_index_.at(links[h]);
  }
  ch->route_valid_ = true;
  return true;
}

bool FlowSimulator::route_alive(const FlowChannel* ch) const {
  if (!ch->route_valid_) return false;
  for (std::int32_t h = 0; h < ch->route_len_; ++h) {
    if (link_capacity_[static_cast<std::size_t>(
            route_pool_[ch->route_base_ + h])] <= 0.0) {
      return false;
    }
  }
  return true;
}

void FlowSimulator::mark_link_dirty(std::int32_t li) {
  if (link_dirty_[static_cast<std::size_t>(li)]) return;
  link_dirty_[static_cast<std::size_t>(li)] = 1;
  dirty_links_.push_back(li);
}

void FlowSimulator::mark_route_dirty(const FlowChannel* ch) {
  for (std::int32_t h = 0; h < ch->route_len_; ++h) {
    mark_link_dirty(route_pool_[ch->route_base_ + h]);
  }
}

void FlowSimulator::add_membership(FlowChannel* ch) {
  assert(!ch->in_members_);
  ch->in_members_ = true;
  for (std::int32_t h = 0; h < ch->route_len_; ++h) {
    auto& list = link_members_[static_cast<std::size_t>(
        route_pool_[ch->route_base_ + h])];
    slot_pool_[ch->route_base_ + h] = static_cast<std::int32_t>(list.size());
    list.push_back(MemberEntry{ch, h});
  }
}

void FlowSimulator::remove_membership(FlowChannel* ch) {
  if (!ch->in_members_) return;
  ch->in_members_ = false;
  for (std::int32_t h = 0; h < ch->route_len_; ++h) {
    auto& list = link_members_[static_cast<std::size_t>(
        route_pool_[ch->route_base_ + h])];
    const auto pos =
        static_cast<std::size_t>(slot_pool_[ch->route_base_ + h]);
    assert(pos < list.size() && list[pos].ch == ch);
    if (pos + 1 != list.size()) {
      const MemberEntry moved = list.back();
      list[pos] = moved;
      slot_pool_[moved.ch->route_base_ + moved.hop] =
          static_cast<std::int32_t>(pos);
    }
    list.pop_back();
  }
}

void FlowSimulator::busy_add(FlowChannel* ch) {
  assert(ch->busy_pos_ < 0);
  ch->busy_pos_ = static_cast<std::int32_t>(busy_.size());
  busy_.push_back(ch);
}

void FlowSimulator::busy_remove(FlowChannel* ch) {
  const std::int32_t pos = ch->busy_pos_;
  assert(pos >= 0 && busy_[static_cast<std::size_t>(pos)] == ch);
  FlowChannel* last = busy_.back();
  busy_[static_cast<std::size_t>(pos)] = last;
  last->busy_pos_ = pos;
  busy_.pop_back();
  ch->busy_pos_ = -1;
}

sim::SimTime FlowSimulator::predict_drain(const FlowChannel* ch,
                                          sim::SimTime now) const {
  assert(ch->settled_at_ == now && "predictions read a settled account");
  if (ch->rate_ <= 0.0) return sim::kTimeInfinity;
  const double secs = ch->remaining_ / ch->rate_;
  return now + static_cast<sim::SimTime>(std::ceil(secs * 1e9)) + 1;
}

void FlowSimulator::heap_update(FlowChannel* ch, sim::SimTime key) {
  ++stats_.heap_updates;
  drain_heap_.push({key, static_cast<std::uint32_t>(ch->ordinal_)});
}

void FlowSimulator::heap_remove(FlowChannel* ch) {
  const auto id = static_cast<std::uint32_t>(ch->ordinal_);
  if (!drain_heap_.contains(id)) return;
  ++stats_.heap_updates;
  drain_heap_.remove(id);
}

void FlowSimulator::make_stalled(FlowChannel* ch, sim::SimTime now) {
  assert(!ch->stalled_);
  settle_channel(ch, now);
  ch->rate_ = 0.0;
  ch->stalled_ = true;
  ++stats_.stalls;
  remove_membership(ch);
  heap_remove(ch);
  --sending_count_;
}

void FlowSimulator::make_unstalled(FlowChannel* ch, sim::SimTime now) {
  assert(ch->stalled_);
  settle_channel(ch, now);  // Arithmetic no-op at rate 0; stamps settled_at_.
  ch->stalled_ = false;
  ++sending_count_;
  if (ch->f_ != nullptr) {
    ch->weight_ = ch->current_weight();
    ch->next_refresh_ = now + kWeightRefresh;
    // Seed a heap entry so the refresh deadline fires even if the fill
    // leaves the rate at zero (saturated component).
    heap_update(ch, ch->next_refresh_);
  }
  add_membership(ch);
}

void FlowSimulator::reallocate(sim::SimTime now, bool whole_fabric) {
  ++stats_.recomputes;
  ++visit_epoch_;
  if (whole_fabric || cfg_.full_recompute) ++stats_.full_recomputes;

  // Weight refresh rides the perturbation: every MLTCP channel whose
  // component the dirty region touches gets F(bytes_ratio) re-read
  // (settling it to "now" first) — the same cadence the old global
  // recompute refreshed at, since any pass that would have moved a
  // channel's rate visits its component. Quiet components fall back to the
  // per-channel kWeightRefresh deadline in the drain heap. The refresh set
  // is derived from the dirty closure in BOTH recompute modes, so settle
  // instants — and with them the float trajectories — are mode-invariant.
  //
  // Transitive closure of the dirty links over the link<->flow sharing
  // graph: every flow whose allocation the dirty region can influence is in
  // here; everything else keeps a provably unchanged rate (max-min
  // decomposes over connected components of this graph). A visited
  // channel's refreshed weight needs no extra dirty marks — the visit
  // already marks its whole route. A topology pass has marked every link,
  // so its closure is every sending channel.
  affected_.clear();
  for (std::size_t qi = 0; qi < dirty_links_.size(); ++qi) {
    for (const MemberEntry& m :
         link_members_[static_cast<std::size_t>(dirty_links_[qi])]) {
      FlowChannel* ch = m.ch;
      if (ch->visit_epoch_ == visit_epoch_) continue;
      ch->visit_epoch_ = visit_epoch_;
      if (ch->f_ != nullptr) {
        settle_channel(ch, now);
        ch->weight_ = ch->current_weight();
      }
      affected_.push_back(ch);
      mark_route_dirty(ch);
    }
  }
  if (cfg_.full_recompute) {
    // Escape hatch: same refresh set as the incremental path (computed
    // above), but the fill runs over every sending channel — the reference
    // the closure restriction is differentially checked against.
    affected_.clear();
    for (FlowChannel* ch : busy_) {
      if (ch->state_ != FlowChannel::State::kSending || ch->stalled_) continue;
      affected_.push_back(ch);
    }
  }

  if (!affected_.empty()) {
    // Canonical order: the full-recompute reference and any dirty closure
    // seed the fill in channel-creation order, so a component's arithmetic
    // is the same operation sequence no matter which mode ran it.
    std::sort(affected_.begin(), affected_.end(),
              [](const FlowChannel* a, const FlowChannel* b) {
                return a->ordinal_ < b->ordinal_;
              });
    stats_.waterfill_channels += static_cast<std::int64_t>(affected_.size());
    stats_.frozen_skips +=
        sending_count_ - static_cast<std::int64_t>(affected_.size());

    used_links_.clear();
    for (FlowChannel* ch : affected_) {
      ch->frozen_ = false;
      ch->new_rate_ = 0.0;
      for (std::int32_t h = 0; h < ch->route_len_; ++h) {
        const std::int32_t li = route_pool_[ch->route_base_ + h];
        const auto l = static_cast<std::size_t>(li);
        if (link_active_[l] == 0) {
          used_links_.push_back(li);
          link_residual_[l] = link_capacity_[l];
          link_weight_sum_[l] = 0.0;
        }
        link_active_[l] += 1;
        link_weight_sum_[l] += ch->weight_;
      }
    }
    stats_.dirty_links += static_cast<std::int64_t>(used_links_.size());

    // Weighted max-min water-filling: repeatedly find the tightest link
    // (smallest residual capacity per unit of unfrozen weight), freeze its
    // flows at weight * share, and charge their rates to every other link
    // on their routes. Rates stage into new_rate_ so an unchanged result
    // leaves the channel — its settle account and its heap entry — alone.
    std::size_t unfrozen = affected_.size();
    while (unfrozen > 0) {
      ++stats_.waterfill_rounds;
      double min_share = std::numeric_limits<double>::infinity();
      std::int32_t bottleneck = -1;
      for (const std::int32_t li : used_links_) {
        const auto l = static_cast<std::size_t>(li);
        if (link_active_[l] <= 0) continue;
        const double share =
            std::max(link_residual_[l], 0.0) / link_weight_sum_[l];
        if (share < min_share) {
          min_share = share;
          bottleneck = li;
        }
      }
      assert(bottleneck >= 0 && "unfrozen flows imply an unfrozen link");
      if (bottleneck < 0) break;
      for (const MemberEntry& m :
           link_members_[static_cast<std::size_t>(bottleneck)]) {
        FlowChannel* ch = m.ch;
        if (ch->frozen_) continue;
        ch->frozen_ = true;
        ch->new_rate_ = ch->weight_ * min_share;
        --unfrozen;
        for (std::int32_t h = 0; h < ch->route_len_; ++h) {
          const auto l =
              static_cast<std::size_t>(route_pool_[ch->route_base_ + h]);
          link_residual_[l] -= ch->new_rate_;
          link_weight_sum_[l] -= ch->weight_;
          link_active_[l] -= 1;
        }
      }
    }
    for (const std::int32_t li : used_links_) {
      link_active_[static_cast<std::size_t>(li)] = 0;
    }

    // Commit: settle and re-key only channels whose rate actually moved.
    // The comparison is bit-exact on purpose — it makes the set of settle
    // points a function of the model trajectory alone, not of which
    // recompute mode produced it.
    for (FlowChannel* ch : affected_) {
      if (ch->new_rate_ == ch->rate_) continue;
      settle_channel(ch, now);
      ch->rate_ = ch->new_rate_;
      sim::SimTime key = predict_drain(ch, now);
      if (ch->f_ != nullptr && ch->next_refresh_ < key) {
        key = ch->next_refresh_;
      }
      if (key < sim::kTimeInfinity) {
        heap_update(ch, key);
      } else {
        heap_remove(ch);
      }
    }
  } else {
    stats_.frozen_skips += sending_count_;
  }

  for (const std::int32_t li : dirty_links_) {
    link_dirty_[static_cast<std::size_t>(li)] = 0;
  }
  dirty_links_.clear();

  if (!drain_heap_.empty()) {
    timer_.arm_at(drain_heap_.top().when);
  } else {
    timer_.cancel();
  }

  if (auto* t = telemetry::tracer_for(sim_, telemetry::Category::kFlowsim)) {
    t->instant(telemetry::Category::kFlowsim, "reallocate", now,
               telemetry::track_flowsim(), "active",
               static_cast<double>(affected_.size()), "rounds",
               static_cast<double>(stats_.waterfill_rounds));
  }
}

void FlowSimulator::on_timer() {
  const sim::SimTime now = sim_.now();
  in_recompute_ = true;
  ensure_link_arrays();

  // Pop exactly the channels whose predicted instant arrived; everyone
  // else stays untouched in the heap. Processing order is channel-creation
  // order — deterministic, independent of heap internals and shard count.
  due_.clear();
  while (!drain_heap_.empty() && drain_heap_.top().when <= now) {
    due_.push_back(channels_[drain_heap_.top().id].get());
    drain_heap_.pop();
  }
  std::sort(due_.begin(), due_.end(),
            [](const FlowChannel* a, const FlowChannel* b) {
              return a->ordinal_ < b->ordinal_;
            });

  completed_scratch_.clear();
  for (FlowChannel* ch : due_) {
    if (ch->state_ == FlowChannel::State::kDraining) {
      if (ch->drain_until_ <= now) {
        completed_scratch_.push_back(ch);
      } else {
        heap_update(ch, ch->drain_until_);
      }
      continue;
    }
    if (ch->state_ != FlowChannel::State::kSending || ch->stalled_) continue;
    settle_channel(ch, now);
    if (ch->remaining_ <= kDrainEpsilon && ch->rate_ > 0.0) {
      // Serialization complete: the channel's capacity returns to the pool
      // (its route links go dirty) and the last byte propagates.
      mark_route_dirty(ch);
      remove_membership(ch);
      ch->state_ = FlowChannel::State::kDraining;
      ch->drain_until_ = now + ch->route_delay_;
      ch->rate_ = 0.0;
      --sending_count_;
      if (ch->drain_until_ <= now) {
        completed_scratch_.push_back(ch);
      } else {
        heap_update(ch, ch->drain_until_);
      }
      continue;
    }
    // Not drained: this firing is the channel's weight-refresh deadline
    // (or a prediction that settled a hair early — re-key either way).
    if (ch->f_ != nullptr && now >= ch->next_refresh_) {
      const double w = ch->current_weight();
      ch->next_refresh_ = now + kWeightRefresh;
      if (w != ch->weight_) {
        ch->weight_ = w;
        mark_route_dirty(ch);
      }
    }
    sim::SimTime key = predict_drain(ch, now);
    if (ch->f_ != nullptr && ch->next_refresh_ < key) key = ch->next_refresh_;
    if (key < sim::kTimeInfinity) heap_update(ch, key);
  }

  for (FlowChannel* ch : completed_scratch_) {
    assert(!ch->queue_.empty());
    FlowChannel::Message msg = std::move(ch->queue_.front());
    ch->queue_.pop_front();
    ch->state_ = FlowChannel::State::kIdle;
    ch->total_ = ch->remaining_ = 0.0;
    busy_remove(ch);
    ++stats_.messages_completed;
    // The callback may post new messages (request/response patterns do,
    // synchronously); they land in start_queue_ and enter this same
    // timestamp's allocation.
    if (msg.done) msg.done(now);
    // FIFO backlog on this channel: restart via the same start path.
    if (!ch->queue_.empty() && !ch->in_start_queue_) {
      ch->in_start_queue_ = true;
      start_queue_.push_back(ch);
    }
  }

  const bool whole_fabric = routes_dirty_;
  if (whole_fabric) {
    routes_dirty_ = false;
    refresh_capacities();
    // Every busy channel leaves its member lists before any re-enters:
    // the lists' order is the freeze order inside a bottleneck.
    for (FlowChannel* ch : busy_) {
      remove_membership(ch);  // No-op for draining/stalled channels.
      resolve_route_span(ch);
      ++stats_.reroutes;
    }
    // Stall/unstall transitions ride topology-change passes only: between
    // them capacities are constant, so aliveness cannot change.
    for (FlowChannel* ch : busy_) {
      if (ch->state_ != FlowChannel::State::kSending) continue;
      if (route_alive(ch)) {
        if (ch->stalled_) {
          make_unstalled(ch, now);
        } else {
          add_membership(ch);  // Re-enter under the re-resolved route.
        }
      } else if (!ch->stalled_) {
        make_stalled(ch, now);
      }
    }
    for (std::size_t li = 0; li < link_ptrs_.size(); ++li) {
      mark_link_dirty(static_cast<std::int32_t>(li));
    }
  }

  for (FlowChannel* ch : start_queue_) {
    ch->in_start_queue_ = false;
    if (ch->state_ != FlowChannel::State::kIdle || ch->queue_.empty()) {
      continue;
    }
    ch->state_ = FlowChannel::State::kSending;
    ch->total_ = ch->remaining_ =
        static_cast<double>(ch->queue_.front().bytes);
    ch->rate_ = 0.0;
    ch->settled_at_ = now;
    ch->stalled_ = true;  // make_unstalled admits it once its route is alive.
    busy_add(ch);
    if (!ch->route_valid_) resolve_route_span(ch);
    if (route_alive(ch)) {
      make_unstalled(ch, now);
      mark_route_dirty(ch);
    } else {
      ++stats_.stalls;
    }
  }
  start_queue_.clear();

  reallocate(now, whole_fabric);
  in_recompute_ = false;
}

}  // namespace mltcp::flowsim
