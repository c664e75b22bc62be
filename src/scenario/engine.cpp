#include "scenario/engine.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "tcp/reno.hpp"
#include "telemetry/tracer.hpp"

namespace mltcp::scenario {

const char* action_name(const Action& action) {
  struct Namer {
    const char* operator()(const LinkDown&) const { return "link_down"; }
    const char* operator()(const LinkUp&) const { return "link_up"; }
    const char* operator()(const LinkRate&) const { return "link_rate"; }
    const char* operator()(const Blackhole& b) const {
      return b.on ? "blackhole_on" : "blackhole_off";
    }
    const char* operator()(const DropBurst& d) const {
      return d.probability > 0.0 ? "drop_burst_on" : "drop_burst_off";
    }
    const char* operator()(const JobDeparture&) const {
      return "job_departure";
    }
    const char* operator()(const Straggler&) const { return "straggler"; }
    const char* operator()(const JobArrival&) const { return "job_arrival"; }
    const char* operator()(const BackgroundBurst&) const {
      return "background_burst";
    }
    const char* operator()(const TrafficBurst&) const {
      return "traffic_burst";
    }
  };
  return std::visit(Namer{}, action);
}

ScenarioEngine::ScenarioEngine(sim::Simulator& simulator,
                               net::Topology& topology,
                               workload::Cluster& cluster)
    : sim_(simulator),
      topo_(topology),
      cluster_(cluster),
      ctx_(simulator, topology, cluster),
      timer_(simulator, [this] { on_timer(); }) {}

void ScenarioEngine::validate(const Event& e) const {
  const auto reject = [&e](const auto&... what) {
    std::ostringstream msg;
    msg << "scenario " << action_name(e.action) << " at " << e.at
        << " ns: ";
    (msg << ... << what);
    throw std::invalid_argument(msg.str());
  };
  const auto node = [&](const std::string& name) {
    const net::Node* n = topo_.find_node(name);
    if (n == nullptr) reject("unknown node '", name, "'");
    return n;
  };
  const auto host = [&](int index) {
    const std::size_t hosts = topo_.hosts().size();
    if (index < 0 || static_cast<std::size_t>(index) >= hosts) {
      reject("host index ", index, " is outside [0, ", hosts, ")");
    }
  };
  std::visit(
      [&](const auto& a) {
        using A = std::decay_t<decltype(a)>;
        if constexpr (requires { a.node_a; a.node_b; }) {
          const net::Node* na = node(a.node_a);
          const net::Node* nb = node(a.node_b);
          if (topo_.link_between(*na, *nb) == nullptr) {
            reject("'", a.node_a, "' and '", a.node_b, "' are not adjacent");
          }
        }
        if constexpr (std::is_same_v<A, LinkRate>) {
          if (!(a.rate_bps > 0.0)) {
            reject("rate_bps must be > 0, got ", a.rate_bps);
          }
        }
        if constexpr (std::is_same_v<A, DropBurst>) {
          if (!(a.probability >= 0.0 && a.probability <= 1.0)) {
            reject("probability must be in [0, 1], got ", a.probability);
          }
        }
        if constexpr (std::is_same_v<A, BackgroundBurst>) {
          host(a.src_host);
          host(a.dst_host);
        }
      },
      e.action);
}

void ScenarioEngine::install(const Scenario& scenario) {
  assert(events_.empty() && "install() must be called at most once");
  for (const Event& e : scenario.events()) validate(e);
  if (scenario.empty()) return;  // Nothing scheduled: zero perturbation.
  events_ = scenario.events();
  std::stable_sort(events_.begin(), events_.end(),
                   [](const Event& a, const Event& b) { return a.at < b.at; });
  next_ = 0;
  // Sharded runs (a shard mapper is set): the coordinator pulls events
  // through next_event_time()/apply_through() at global barriers; no timer.
  // The serial timer arms at the barrier key so an event applies before
  // everything else at its instant — exactly what the barriers enforce.
  if (!ctx_.shard_mapper_) {
    timer_.arm_at_keyed(events_.front().at, sim::EventQueue::kBarrierKey);
  }
}

void ScenarioEngine::on_timer() {
  while (next_ < events_.size() && events_[next_].at <= sim_.now()) {
    apply(events_[next_]);
    ++next_;
  }
  if (next_ < events_.size()) {
    timer_.arm_at_keyed(events_[next_].at, sim::EventQueue::kBarrierKey);
  }
}

void ScenarioEngine::apply(const Event& e) {
  struct Applier {
    ScenarioEngine& eng;
    // install() validated every link action, so its names resolve to
    // adjacent nodes.
    bool operator()(const LinkDown& a) {
      eng.topo_.set_link_pair_state(*eng.topo_.find_node(a.node_a),
                                    *eng.topo_.find_node(a.node_b), false);
      return true;
    }
    bool operator()(const LinkUp& a) {
      eng.topo_.set_link_pair_state(*eng.topo_.find_node(a.node_a),
                                    *eng.topo_.find_node(a.node_b), true);
      return true;
    }
    bool operator()(const LinkRate& a) {
      eng.link(a.node_a, a.node_b)->set_rate_bps(a.rate_bps);
      if (net::Link* rev = eng.link(a.node_b, a.node_a)) {
        rev->set_rate_bps(a.rate_bps);
      }
      // Routes are unchanged but capacities moved: a flow-level backend
      // listening on the topology must recompute its allocation.
      eng.topo_.notify_changed();
      return true;
    }
    bool operator()(const Blackhole& a) {
      eng.link(a.node_a, a.node_b)->set_blackhole(a.on);
      eng.topo_.notify_changed();
      return true;
    }
    bool operator()(const DropBurst& a) {
      eng.link(a.node_a, a.node_b)->set_fault_drop(a.probability, a.seed);
      eng.topo_.notify_changed();
      return true;
    }
    bool operator()(const JobDeparture& a) {
      workload::Job* job = eng.cluster_.find_job(a.job);
      assert(job != nullptr && "unknown job in JobDeparture");
      if (job == nullptr) return false;
      job->stop();
      return true;
    }
    bool operator()(const Straggler& a) {
      workload::Job* job = eng.cluster_.find_job(a.job);
      assert(job != nullptr && "unknown job in Straggler");
      if (job == nullptr) return false;
      job->inject_straggler(a.iterations, a.extra_compute);
      return true;
    }
    bool operator()(const JobArrival& a) {
      assert(a.spawn != nullptr);
      if (a.spawn == nullptr) return false;
      a.spawn(eng.ctx_);
      return true;
    }
    bool operator()(const BackgroundBurst& a) {
      workload::Channel* flow = eng.background_flow(a.src_host, a.dst_host);
      // Sharded runs: the send's events (pacing, serialization) belong to
      // the source host's shard; applies run at a global barrier, so
      // binding here is race-free.
      const auto& hosts = eng.topo_.hosts();
      sim::Simulator::ShardGuard guard(
          eng.sim_,
          eng.ctx_.shard_of(hosts[static_cast<std::size_t>(a.src_host)]));
      flow->send_message(a.bytes, [](sim::SimTime) {});
      return true;
    }
    bool operator()(const TrafficBurst& a) {
      // Each burst owns its source (own connection pool + FCT records);
      // like BackgroundBurst legacy flows it runs classic Reno, the
      // non-MLTCP competitor.
      auto source = std::make_unique<traffic::TrafficSource>(
          eng.sim_, eng.cluster_, eng.topo_.hosts(),
          traffic::SourceOptions{
              [] { return std::make_unique<tcp::RenoCC>(); }, {}, {}});
      // One lane per shard (one in a serial run), so each arrival's events
      // start in the shard owning its source host.
      source->set_lane_map(
          [&ctx = eng.ctx_](const net::Host* h) { return ctx.shard_of(h); },
          eng.shards_);
      source->install(a.config);
      eng.traffic_.push_back(std::move(source));
      eng.traffic_labels_.push_back(a.label);
      return true;
    }
  };
  if (std::visit(Applier{*this}, e.action)) {
    ++applied_;
    trace_applied(e);
  } else {
    ++skipped_;
  }
}

net::Link* ScenarioEngine::link(const std::string& a,
                                const std::string& b) const {
  return topo_.link_between(*topo_.find_node(a), *topo_.find_node(b));
}

const traffic::TrafficSource* ScenarioEngine::traffic_source(
    const std::string& label) const {
  for (std::size_t i = 0; i < traffic_labels_.size(); ++i) {
    if (traffic_labels_[i] == label) return traffic_[i].get();
  }
  return nullptr;
}

workload::Channel* ScenarioEngine::background_flow(int src_host,
                                                   int dst_host) {
  const auto& hosts = topo_.hosts();
  auto [it, inserted] = bg_flows_.try_emplace({src_host, dst_host}, nullptr);
  if (inserted) {
    // Legacy traffic is classic Reno — the non-MLTCP competitor of the
    // paper's fairness experiments.
    workload::FlowSpec fs;
    fs.src = hosts[static_cast<std::size_t>(src_host)];
    fs.dst = hosts[static_cast<std::size_t>(dst_host)];
    it->second = cluster_.add_channel(
        fs, [] { return std::make_unique<tcp::RenoCC>(); });
  }
  return it->second;
}

void ScenarioEngine::trace_applied(const Event& e) {
  if (auto* t = telemetry::tracer_for(sim_, telemetry::Category::kFault)) {
    t->instant(telemetry::Category::kFault, action_name(e.action), sim_.now(),
               telemetry::track_scenario(), "applied",
               static_cast<double>(applied_));
  }
}

}  // namespace mltcp::scenario
