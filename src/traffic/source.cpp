#include "traffic/source.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

#include "telemetry/tracer.hpp"

namespace mltcp::traffic {

TrafficSource::TrafficSource(sim::Simulator& simulator,
                             workload::Cluster& cluster,
                             std::vector<net::Host*> hosts,
                             SourceOptions options)
    : sim_(simulator),
      cluster_(cluster),
      hosts_(std::move(hosts)),
      opts_(std::move(options)) {
  assert(opts_.cc != nullptr && "SourceOptions.cc must be set");
}

void TrafficSource::install(std::vector<FlowArrival> arrivals) {
  assert(arrivals_.empty() && "install() must be called at most once");
  const std::size_t n = hosts_.size();
  const auto fail = [](auto... what) {
    std::ostringstream msg;
    (msg << ... << what);
    throw std::invalid_argument(msg.str());
  };
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const FlowArrival& a = arrivals[i];
    const auto reject = [&](auto... what) {
      fail("traffic arrival ", i, ": ", what...);
    };
    if (a.src < 0 || static_cast<std::size_t>(a.src) >= n) {
      reject("src ", a.src, " is outside [0, ", n, ")");
    }
    if (a.dst < 0 || static_cast<std::size_t>(a.dst) >= n) {
      reject("dst ", a.dst, " is outside [0, ", n, ")");
    }
    if (a.src == a.dst) reject("src and dst are both ", a.src);
    if (a.bytes <= 0) reject("bytes ", a.bytes, " is not positive");
    if (i > 0 && a.at < arrivals[i - 1].at) {
      reject("at ", a.at, " ns is before arrival ", i - 1, "'s ",
             arrivals[i - 1].at, " ns");
    }
  }
  for (const net::Host* host : hosts_) {
    const int lane = lane_of_(host);
    if (lane < 0 || lane >= lane_count_) {
      fail("traffic host ", host_lane_.size(), ": lane ", lane,
           " is outside [0, ", lane_count_, ")");
    }
    host_lane_.push_back(lane);
  }
  if (arrivals.empty()) return;  // Nothing scheduled: zero perturbation.
  arrivals_ = std::move(arrivals);
  flows_.assign(n * n, nullptr);
  records_.reserve(arrivals_.size());
  if (lane_count_ > 1) {
    // Lanes run concurrently, so channels are created up front, walking the
    // arrival list in its order: the cluster assigns the exact flow ids one
    // lane's lazy first-use creation would, and lanes only look them up.
    for (const FlowArrival& a : arrivals_) flow_for(a.src, a.dst);
    records_.resize(arrivals_.size());
  }

  for (int i = 0; i < lane_count_; ++i) {
    lanes_.push_back(std::make_unique<Lane>(sim_, this, i));
    Lane& lane = *lanes_.back();
    lane.next = next_in_lane(i, 0);
    if (lane.next == arrivals_.size()) continue;
    // First arm binds the timer's queue slot: do it in the lane's shard so
    // every replay event of this lane runs there (shard 0 is the root).
    sim::Simulator::ShardGuard guard(sim_, i);
    lane.timer.arm_at(arrivals_[lane.next].at);
  }
}

void TrafficSource::install(const TrafficConfig& cfg) {
  install(generate_arrivals(cfg, static_cast<int>(hosts_.size())));
}

std::vector<double> TrafficSource::completed_fcts_seconds() const {
  std::vector<double> out;
  out.reserve(completed());
  for (const FctRecord& r : records()) {
    if (r.done()) out.push_back(r.fct_seconds());
  }
  return out;
}

void TrafficSource::on_timer(int lane_index) {
  Lane& lane = *lanes_[static_cast<std::size_t>(lane_index)];
  while (lane.next < arrivals_.size() &&
         arrivals_[lane.next].at <= sim_.now()) {
    post(lane.next, lane);
    lane.next = next_in_lane(lane_index, lane.next + 1);
  }
  if (lane.next < arrivals_.size()) lane.timer.arm_at(arrivals_[lane.next].at);
}

std::size_t TrafficSource::next_in_lane(int lane_index,
                                        std::size_t from) const {
  // Every lane walks the whole list, stepping over other lanes' arrivals.
  while (from < arrivals_.size() &&
         host_lane_[static_cast<std::size_t>(arrivals_[from].src)] !=
             lane_index) {
    ++from;
  }
  return from;
}

void TrafficSource::post(std::size_t index, Lane& lane) {
  const FlowArrival& a = arrivals_[index];
  workload::Channel* flow = flow_for(a.src, a.dst);

  // One lane posts in list order, so `index` is the next record to append.
  if (index == records_.size()) records_.emplace_back();
  records_[index] = FctRecord{sim_.now(), -1, a.bytes, a.src, a.dst};
  ++lane.posted;
  lane.bytes_posted += a.bytes;

  if (auto* t = telemetry::tracer_for(sim_, telemetry::Category::kTraffic)) {
    t->instant(telemetry::Category::kTraffic, "traffic_arrival", sim_.now(),
               telemetry::track_traffic(), "bytes",
               static_cast<double>(a.bytes));
  }

  // Captures two words, so std::function stores it inline: a post does not
  // allocate. The completing lane is the one that posted, found again from
  // the record's source host.
  flow->send_message(a.bytes, [this, index](sim::SimTime when) {
    FctRecord& r = records_[index];
    r.completed = when;
    Lane& lane = *lanes_[static_cast<std::size_t>(
        host_lane_[static_cast<std::size_t>(r.src)])];
    ++lane.completed;
    lane.bytes_completed += r.bytes;
    if (auto* t =
            telemetry::tracer_for(sim_, telemetry::Category::kTraffic)) {
      t->instant(telemetry::Category::kTraffic, "traffic_complete", when,
                 telemetry::track_traffic(), "fct_s", r.fct_seconds());
    }
  });
}

workload::Channel* TrafficSource::flow_for(std::int32_t src, std::int32_t dst) {
  // install() validated the pair. With several lanes every channel exists
  // before the replay starts and lanes run concurrently, so this is a read.
  workload::Channel*& channel =
      flows_[static_cast<std::size_t>(src) * hosts_.size() +
             static_cast<std::size_t>(dst)];
  if (channel == nullptr) {
    assert(lanes_.size() <= 1 && "several lanes only read their channels");
    workload::FlowSpec fs;
    fs.src = hosts_[static_cast<std::size_t>(src)];
    fs.dst = hosts_[static_cast<std::size_t>(dst)];
    channel = cluster_.add_channel(fs, opts_.cc, opts_.sender, opts_.receiver);
  }
  return channel;
}

}  // namespace mltcp::traffic
