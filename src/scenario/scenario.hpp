#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "sim/time.hpp"
#include "traffic/pattern.hpp"

namespace mltcp::scenario {

class EngineContext;

// Typed fault / churn actions. Every action names its targets symbolically
// (topology node names, job names, host indices), never by pointer, so a
// Scenario is a self-contained copyable value: a campaign Spec can carry one
// across worker threads and every run resolves it against its own world.

/// Takes both directions between two adjacent nodes down (cable cut) and
/// rebuilds every route (Topology::set_link_pair_state).
struct LinkDown {
  std::string node_a;
  std::string node_b;
};

/// Brings both directions back up; triggers a full route rebuild.
struct LinkUp {
  std::string node_a;
  std::string node_b;
};

/// Renegotiates the line rate of both directions (autoneg downshift /
/// recovery). Routes are unchanged.
struct LinkRate {
  std::string node_a;
  std::string node_b;
  double rate_bps = 0.0;
};

/// Forwarding-plane blackhole on the a->b direction only: the link stays
/// administratively up (routes keep pointing at it) but drops everything.
struct Blackhole {
  std::string node_a;
  std::string node_b;
  bool on = true;
};

/// Probabilistic drop burst on the a->b direction; probability 0 clears.
/// The per-link splitmix64 stream is advanced only while active, so runs
/// whose scenario never reaches this event consume no randomness.
struct DropBurst {
  std::string node_a;
  std::string node_b;
  double probability = 0.0;
  std::uint64_t seed = 1;
};

/// Stops a running job (departure / preemption). In-flight bytes drain but
/// complete no further iteration.
struct JobDeparture {
  std::string job;
};

/// The job's next `iterations` compute phases each take `extra_compute`
/// longer — one slow worker stalling the synchronous barrier.
struct Straggler {
  std::string job;
  int iterations = 1;
  sim::SimTime extra_compute = 0;
};

/// Mid-run job arrival. The callback builds and starts the job against the
/// run's own world (add_job + start) — specs hold hosts by pointer, so the
/// construction must happen inside the run, not when the Scenario is built.
/// `label` is what telemetry and reports call the arrival.
struct JobArrival {
  std::string label;
  std::function<void(EngineContext&)> spawn;
};

/// A burst of classic (non-MLTCP) legacy traffic: `bytes` posted on an
/// engine-owned Reno flow from hosts()[src_host] to hosts()[dst_host].
/// Repeated bursts between the same pair reuse the same flow.
struct BackgroundBurst {
  int src_host = 0;
  int dst_host = 0;
  std::int64_t bytes = 0;
};

/// A whole traffic-matrix stream (Poisson / incast / tornado / all-to-all /
/// permutation) switched on mid-run: the engine expands the config against
/// the run's own hosts and replays it on classic-Reno background
/// connections (traffic::TrafficSource). `config.start/stop` are absolute
/// simulation times; the event's `at` only controls when the source is
/// installed. The config is a pure value, so a Scenario carrying one stays
/// copyable across campaign worker threads, and its per-run arrivals stay
/// byte-identical at every MLTCP_THREADS.
struct TrafficBurst {
  std::string label;
  traffic::TrafficConfig config;
};

using Action = std::variant<LinkDown, LinkUp, LinkRate, Blackhole, DropBurst,
                            JobDeparture, Straggler, JobArrival,
                            BackgroundBurst, TrafficBurst>;

/// One scheduled action.
struct Event {
  sim::SimTime at = 0;
  Action action;
};

/// A deterministic, scripted fault-injection timeline: a time-ordered list
/// of typed events the ScenarioEngine replays against one simulation run.
/// Events added out of order are fine — the engine replays them sorted by
/// time, ties in insertion order (stable), so a scenario's effect is a pure
/// function of its contents.
class Scenario {
 public:
  Scenario& at(sim::SimTime when, Action action) {
    events_.push_back(Event{when, std::move(action)});
    return *this;
  }

  // Fluent builders, chainable: s.link_down(t1, "swL", "swR")
  //                              .link_up(t2, "swL", "swR");
  Scenario& link_down(sim::SimTime when, std::string a, std::string b) {
    return at(when, LinkDown{std::move(a), std::move(b)});
  }
  Scenario& link_up(sim::SimTime when, std::string a, std::string b) {
    return at(when, LinkUp{std::move(a), std::move(b)});
  }
  Scenario& link_rate(sim::SimTime when, std::string a, std::string b,
                      double rate_bps) {
    return at(when, LinkRate{std::move(a), std::move(b), rate_bps});
  }
  Scenario& blackhole(sim::SimTime when, std::string a, std::string b,
                      bool on) {
    return at(when, Blackhole{std::move(a), std::move(b), on});
  }
  Scenario& drop_burst(sim::SimTime when, std::string a, std::string b,
                       double probability, std::uint64_t seed = 1) {
    return at(when, DropBurst{std::move(a), std::move(b), probability, seed});
  }
  Scenario& job_departure(sim::SimTime when, std::string job) {
    return at(when, JobDeparture{std::move(job)});
  }
  Scenario& straggler(sim::SimTime when, std::string job, int iterations,
                      sim::SimTime extra_compute) {
    return at(when, Straggler{std::move(job), iterations, extra_compute});
  }
  Scenario& job_arrival(sim::SimTime when, std::string label,
                        std::function<void(EngineContext&)> spawn) {
    return at(when, JobArrival{std::move(label), std::move(spawn)});
  }
  Scenario& background_burst(sim::SimTime when, int src_host, int dst_host,
                             std::int64_t bytes) {
    return at(when, BackgroundBurst{src_host, dst_host, bytes});
  }
  Scenario& traffic_burst(sim::SimTime when, std::string label,
                          traffic::TrafficConfig config) {
    return at(when, TrafficBurst{std::move(label), config});
  }

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  const std::vector<Event>& events() const { return events_; }

 private:
  std::vector<Event> events_;
};

/// Static display name of an action, for telemetry (which requires static
/// strings) and reports.
const char* action_name(const Action& action);

}  // namespace mltcp::scenario
