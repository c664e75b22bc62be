#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "tcp/cong_control.hpp"
#include "tcp/receiver.hpp"
#include "tcp/sender.hpp"
#include "traffic/pattern.hpp"
#include "workload/cluster.hpp"

namespace mltcp::traffic {

/// One transfer's lifecycle as the source observed it. `completed == -1`
/// means the flow was still open when the run ended — FCT reporting must
/// count it separately, never fold its truncated duration into the tails.
struct FctRecord {
  sim::SimTime arrival = 0;
  sim::SimTime completed = -1;
  std::int64_t bytes = 0;
  std::int32_t src = 0;
  std::int32_t dst = 0;

  bool done() const { return completed >= 0; }
  double fct_seconds() const {
    return done() ? sim::to_seconds(completed - arrival) : -1.0;
  }
};

/// Transport configuration for the flows a TrafficSource creates.
struct SourceOptions {
  tcp::CcFactory cc;  ///< Must be set.
  tcp::SenderConfig sender;
  tcp::ReceiverConfig receiver;
};

/// Replays a pre-generated arrival list against one run's world: each
/// arrival posts its bytes as a message on a cluster-owned TCP connection
/// between the two hosts (connections are reused per (src, dst) pair, so a
/// pair's transfers share one congestion-control state and queue FIFO behind
/// each other — connection semantics, which is what makes sender-side
/// queueing show up in the FCT like it does in production).
///
/// Determinism: the arrival list is generated up front from per-run seeds
/// (generate_arrivals) and each replay lane posts its arrivals in list
/// order off its own timer — a serial run is one lane — so a run's traffic
/// is a pure function of (config, world), the same discipline as the
/// scenario engine.
class TrafficSource {
 public:
  /// `hosts` maps the arrival list's host indices to real hosts; flows are
  /// created lazily through `cluster` (which owns their lifetime).
  TrafficSource(sim::Simulator& simulator, workload::Cluster& cluster,
                std::vector<net::Host*> hosts, SourceOptions options);

  TrafficSource(const TrafficSource&) = delete;
  TrafficSource& operator=(const TrafficSource&) = delete;

  /// Schedules the replay. Call at most once; arrivals whose time is
  /// already past fire immediately. Throws std::invalid_argument, naming
  /// the arrival's index, field and value, unless every arrival has `src`
  /// and `dst` in [0, hosts), `src != dst` and `bytes > 0`, and `at` never
  /// decreases along the list; and, naming the host and its lane, unless
  /// the lane map puts every host in [0, lanes).
  void install(std::vector<FlowArrival> arrivals);

  /// Convenience: generate_arrivals(cfg, hosts.size()) + install.
  void install(const TrafficConfig& cfg);

  /// Sharded runs: splits the replay into per-shard "lanes". Each lane posts
  /// the arrivals whose source host maps to it, off its own timer armed in
  /// that shard's context, so an arrival's events start in the shard that
  /// owns its source host. Lane index == shard index by contract. Call
  /// before install(); without a map there is one lane.
  ///
  /// Several lanes keep the one-lane replay's observable sequence: channels
  /// are pre-created at install() in first-use order (identical flow-id
  /// assignment), and records are written by arrival index into slots sized
  /// at install() (disjoint across lanes).
  void set_lane_map(std::function<int(const net::Host*)> lane_of, int lanes) {
    assert(arrivals_.empty() && "set_lane_map() must precede install()");
    assert(lanes >= 1);
    lane_of_ = std::move(lane_of);
    lane_count_ = lanes;
  }

  /// Per-arrival records of the posted arrivals, in arrival order. Stable
  /// once posted: completion fills in `completed` in place. Read at rest
  /// (between runs): the posted arrivals are then a prefix of the list.
  std::span<const FctRecord> records() const {
    return {records_.data(), posted()};
  }

  /// Completion times (seconds) of every finished transfer, arrival order.
  std::vector<double> completed_fcts_seconds() const;

  std::size_t posted() const { return sum(&Lane::posted); }
  std::size_t completed() const { return sum(&Lane::completed); }
  /// Transfers posted but unfinished (run ended or still draining).
  std::size_t open() const { return posted() - completed(); }

  std::int64_t bytes_posted() const { return sum(&Lane::bytes_posted); }
  std::int64_t bytes_completed() const { return sum(&Lane::bytes_completed); }

 private:
  /// One lane's replay state: its timer, its cursor into the arrival list
  /// and its own counters (summed in the accessors), so concurrent lanes
  /// never touch shared mutable state.
  struct Lane {
    Lane(sim::Simulator& simulator, TrafficSource* source, int index)
        : timer(simulator, [source, index] { source->on_timer(index); }) {}
    sim::Timer timer;
    std::size_t next = 0;  ///< The lane's next arrival; list size when done.
    std::size_t posted = 0;
    std::size_t completed = 0;
    std::int64_t bytes_posted = 0;
    std::int64_t bytes_completed = 0;
  };

  template <typename T>
  T sum(T Lane::*counter) const {
    T n = 0;
    for (const auto& lane : lanes_) n += (*lane).*counter;
    return n;
  }

  void on_timer(int lane_index);
  /// The first arrival at or after `from` whose source host is in the lane.
  std::size_t next_in_lane(int lane_index, std::size_t from) const;
  void post(std::size_t index, Lane& lane);
  workload::Channel* flow_for(std::int32_t src, std::int32_t dst);

  sim::Simulator& sim_;
  workload::Cluster& cluster_;
  std::vector<net::Host*> hosts_;
  SourceOptions opts_;

  std::vector<FlowArrival> arrivals_;  ///< Sorted by (at, order).

  /// Maps a host to its lane; without set_lane_map() all share lane 0.
  std::function<int(const net::Host*)> lane_of_ = [](const net::Host*) {
    return 0;
  };
  int lane_count_ = 1;
  std::vector<int> host_lane_;  ///< Lane of each host; built at install().
  std::vector<std::unique_ptr<Lane>> lanes_;

  /// Backend-owned channels, reused per ordered host pair and indexed by
  /// `src * hosts + dst`; sized at install(), filled on first use. Several
  /// lanes: fully populated at install(), lookup-only afterwards.
  std::vector<workload::Channel*> flows_;

  /// Indexed by arrival: one lane appends as it posts; several lanes write
  /// slots sized at install().
  std::vector<FctRecord> records_;
};

}  // namespace mltcp::traffic
