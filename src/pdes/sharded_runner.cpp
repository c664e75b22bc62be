#include "pdes/sharded_runner.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <thread>

namespace mltcp::pdes {

namespace {

/// Saturating add against the kTimeInfinity sentinel (a frontier of
/// "nothing left" must not wrap around).
sim::SimTime saturating_add(sim::SimTime t, sim::SimTime d) {
  return t >= sim::kTimeInfinity - d ? sim::kTimeInfinity : t + d;
}

/// Canonical merge order across channels: (when, key), where key is the
/// link's canonical delivery key — the identical tiebreak the serial queue
/// uses for delivery events, so merging imports against each other and
/// against the local queue reproduces the serial total order exactly.
bool import_before(const Delivery& a, const Delivery& b) {
  if (a.when != b.when) return a.when < b.when;
  return a.key < b.key;
}

}  // namespace

ShardedRunner::ShardedRunner(sim::Simulator& simulator, net::Topology& topo,
                             const Partition& partition, Mode mode)
    : sim_(simulator), topo_(topo), mode_(mode) {
  if (simulator.shard_count() != partition.shards) {
    throw std::invalid_argument(
        "ShardedRunner: the simulator has " +
        std::to_string(simulator.shard_count()) + " shard(s), the partition " +
        std::to_string(partition.shards) +
        "; call configure_shards(partition.shards) first");
  }
  if (simulator.tracer() != nullptr) {
    throw std::invalid_argument(
        "ShardedRunner: tracing is a serial-mode feature; detach the tracer "
        "for sharded runs");
  }

  shards_.reserve(static_cast<std::size_t>(partition.shards));
  for (int i = 0; i < partition.shards; ++i) {
    auto s = std::make_unique<Shard>();
    s->index = i;
    s->ctx = &simulator.shard_context(i);
    shards_.push_back(std::move(s));
  }

  channels_.reserve(partition.cut_links.size());
  for (const CutLink& cut : partition.cut_links) {
    auto channel = std::make_unique<CrossShardChannel>(cut.link);
    Shard& dst = *shards_[static_cast<std::size_t>(cut.dst_shard)];
    channel->set_consumer_signal(&dst.signal);
    dst.inbound.push_back(channel.get());
    shards_[static_cast<std::size_t>(cut.src_shard)]->outbound.push_back(
        channel.get());
    cut.link->set_delivery_sink(channel.get());
    channels_.push_back(std::move(channel));
  }
  stats_.resize(shards_.size());
}

ShardedRunner::~ShardedRunner() {
  for (const auto& channel : channels_) {
    channel->link()->set_delivery_sink(nullptr);
  }
}

bool ShardedRunner::pump(Shard& s, sim::SimTime bound) {
  // Safe horizon: strictly below the minimum inbound LBTS (a neighbour may
  // still emit a delivery exactly at its promised bound), and never past
  // the phase bound. Read the bounds BEFORE draining: a producer pushes a
  // delivery before it advances the LBTS past it, so every delivery below
  // the bound observed here is already in the inbox. Draining first would
  // let a concurrent push-then-advance slip in between, and the shard would
  // run local work past a delivery it never saw.
  sim::SimTime lbts_min = sim::kTimeInfinity;
  for (const CrossShardChannel* in : s.inbound) {
    lbts_min = std::min(lbts_min, in->lbts());
  }

  // Pull everything neighbours pushed since the last quantum. Per-channel
  // order is time order, so appending preserves the stream.
  for (CrossShardChannel* in : s.inbound) in->drain();

  sim::SimTime now_limit =
      std::min(bound, lbts_min == sim::kTimeInfinity ? sim::kTimeInfinity
                                                     : lbts_min - 1);

  std::uint64_t executed = 0;
  sim::EventQueue& queue = s.ctx->queue;
  for (;;) {
    // Head of the merged import stream (canonical cross-channel order).
    CrossShardChannel* best = nullptr;
    for (CrossShardChannel* in : s.inbound) {
      if (in->empty()) continue;
      if (best == nullptr || import_before(in->front(), best->front())) {
        best = in;
      }
    }
    if (best == nullptr || best->front().when > now_limit) {
      // No executable import: drain local work to the safe horizon. The
      // queue re-peeks each pop, so events the burst schedules at
      // still-safe times join it immediately.
      while (!queue.empty() &&
             queue.pop_and_run_before(now_limit, &s.ctx->now)) {
        ++s.ctx->executed;
        ++executed;
      }
      break;
    }
    // Run the local events that canonically precede the import — strictly
    // below (d.when, d.key) in the shared total order — then the import
    // itself, and re-evaluate (the next import may be on another channel).
    const Delivery& d = best->front();
    while (!queue.empty() &&
           queue.pop_and_run_before_key(d.when, d.key, &s.ctx->now)) {
      ++s.ctx->executed;
      ++executed;
    }
    assert(d.when >= s.ctx->now && "causality violation on import");
    s.ctx->now = d.when;
    d.dst->receive(d.pkt);
    best->pop();
    ++s.ctx->executed;
    ++s.stats.imports;
    ++executed;
  }

  // Publish the new frontier: nothing this shard will ever emit on a cut
  // link can arrive before (earliest thing it might still execute) + that
  // link's propagation delay. The earliest candidates are the local queue
  // head, the merged import head, and lbts_min (a neighbour's promise of
  // deliveries yet to be pushed).
  sim::SimTime front = lbts_min;
  if (!queue.empty()) front = std::min(front, queue.next_time());
  for (const CrossShardChannel* in : s.inbound) {
    if (!in->empty()) front = std::min(front, in->front().when);
  }
  const bool moved = front != s.front;
  if (moved) {
    s.front = front;
    for (CrossShardChannel* out : s.outbound) {
      out->advance(
          saturating_add(front, out->link()->propagation_delay()));
    }
  }
  return executed > 0 || moved;
}

void ShardedRunner::reset_frontiers() {
  // The one bound that survives out-of-band injection: no shard holds an
  // event (queued or imported-but-unexecuted) below the global minimum M,
  // and injected events are clamped to their shard's clock, so every future
  // delivery on any cut link happens at or after M plus that link's
  // propagation delay.
  sim::SimTime global_min = sim::kTimeInfinity;
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    if (!s.ctx->queue.empty()) {
      global_min = std::min(global_min, s.ctx->queue.next_time());
    }
    for (CrossShardChannel* in : s.inbound) {
      // Deliveries can sit pushed-but-undrained past a phase end (their
      // timestamps exceed the old bound); pull them in so the minimum sees
      // every pending event in the system. All shards are parked, so the
      // consumer-side drain is safe from this thread.
      in->drain();
      if (!in->empty()) global_min = std::min(global_min, in->front().when);
    }
  }
  for (const auto& channel : channels_) {
    channel->force_lbts(
        saturating_add(global_min, channel->link()->propagation_delay()));
  }
  // Invalidate the published-frontier cache so the first pump of the next
  // phase republishes the real (protocol-maintained) bounds.
  for (const auto& sp : shards_) sp->front = -1;
}

void ShardedRunner::run_phase_cooperative(sim::SimTime bound) {
  for (;;) {
    bool progress = false;
    bool done = true;
    for (const auto& sp : shards_) {
      Shard& s = *sp;
      if (s.front > bound) continue;
      sim::Simulator::ShardGuard guard(sim_, s.index);
      const bool p = pump(s, bound);
      progress |= p;
      if (s.front <= bound) {
        done = false;
        if (!p) ++s.stats.stalls;
      }
    }
    if (done) return;
    // A full no-progress round with unfinished shards means the LBTS fixed
    // point stopped short of the bound — impossible while the
    // minimum-frontier shard is always executable (positive lookahead).
    if (!progress) {
      throw std::logic_error(
          "ShardedRunner: conservative synchronization stalled below t=" +
          std::to_string(bound) + " ns (a cut link without lookahead?)");
    }
  }
}

void ShardedRunner::run_phase_threaded(sim::SimTime bound) {
  std::vector<std::thread> threads;
  threads.reserve(shards_.size());
  for (const auto& sp : shards_) {
    threads.emplace_back([this, &s = *sp, bound] {
      sim::Simulator::ShardGuard guard(sim_, s.index);
      while (s.front <= bound) {
        // Observe the signal version before reading channel state: a push
        // or LBTS advance that lands after this read bumps the version, so
        // the wait below cannot sleep through it.
        const std::uint64_t seen = s.signal.version();
        const bool progress = pump(s, bound);
        if (s.front > bound) break;
        if (!progress) {
          ++s.stats.stalls;
          s.signal.wait(seen);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

void ShardedRunner::run_phase(sim::SimTime bound) {
  bool threaded = mode_ == Mode::kThreaded;
  if (mode_ == Mode::kAuto) {
    // A reading of 0 means "unknown" and stays cooperative.
    threaded = std::thread::hardware_concurrency() >= shards_.size();
  }
  if (threaded && shards_.size() > 1) {
    workers_ = static_cast<int>(shards_.size());
    run_phase_threaded(bound);
  } else {
    workers_ = 1;
    run_phase_cooperative(bound);
  }
}

void ShardedRunner::run_until(sim::SimTime deadline) {
  // Events may have been injected out-of-band since the frontiers were last
  // published (workload setup before the first call, a previous run_until's
  // aftermath, a scenario apply) — possibly below an LBTS a producer
  // already promised past. Every such injection happens while all shards
  // are at rest, so re-grounding here is sound.
  reset_frontiers();
  if (engine_ != nullptr) {
    // Scenario events are global barriers: every shard runs strictly below
    // the event time, the clocks align to it, the event applies serially on
    // this thread (so cross-shard mutations like route repair see a world
    // at rest), and execution resumes.
    for (;;) {
      const sim::SimTime at = engine_->next_event_time();
      if (at > deadline) break;
      run_phase(at - 1);
      for (const auto& sp : shards_) {
        sp->ctx->now = std::max(sp->ctx->now, at);
      }
      engine_->apply_through(at);
      reset_frontiers();
    }
  }
  run_phase(deadline);
  for (const auto& sp : shards_) {
    sp->ctx->now = std::max(sp->ctx->now, deadline);
  }

  // Fold channel counters into the published per-shard stats.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardStats st = shards_[i]->stats;
    for (const CrossShardChannel* out : shards_[i]->outbound) {
      st.null_updates += out->null_updates();
    }
    for (const CrossShardChannel* in : shards_[i]->inbound) {
      st.max_inbound_backlog = std::max(
          st.max_inbound_backlog,
          static_cast<std::uint64_t>(in->max_backlog()));
    }
    stats_[i] = st;
  }
}

ShardStats ShardedRunner::totals() const {
  ShardStats total;
  for (const ShardStats& s : stats_) {
    total.imports += s.imports;
    total.null_updates += s.null_updates;
    total.stalls += s.stalls;
    total.max_inbound_backlog =
        std::max(total.max_inbound_backlog, s.max_inbound_backlog);
  }
  return total;
}

void ShardedRunner::export_metrics(telemetry::MetricRegistry& registry) const {
  for (std::size_t i = 0; i < stats_.size(); ++i) {
    const std::string prefix = "pdes/shard" + std::to_string(i) + "/";
    registry.counter(prefix + "events").add(
        static_cast<std::int64_t>(shards_[i]->ctx->executed));
    registry.counter(prefix + "imports").add(
        static_cast<std::int64_t>(stats_[i].imports));
    registry.counter(prefix + "null_updates").add(
        static_cast<std::int64_t>(stats_[i].null_updates));
    registry.counter(prefix + "lookahead_stalls").add(
        static_cast<std::int64_t>(stats_[i].stalls));
    registry.counter(prefix + "max_inbound_backlog").add(
        static_cast<std::int64_t>(stats_[i].max_inbound_backlog));
  }
  const ShardStats total = totals();
  registry.counter("pdes/total/imports").add(
      static_cast<std::int64_t>(total.imports));
  registry.counter("pdes/total/null_updates").add(
      static_cast<std::int64_t>(total.null_updates));
  registry.counter("pdes/total/lookahead_stalls").add(
      static_cast<std::int64_t>(total.stalls));
}

}  // namespace mltcp::pdes
