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
      opts_(std::move(options)),
      timer_(simulator, [this] { on_timer(); }) {
  assert(opts_.cc != nullptr && "SourceOptions.cc must be set");
}

void TrafficSource::install(std::vector<FlowArrival> arrivals) {
  assert(arrivals_.empty() && "install() must be called at most once");
  const std::size_t n = hosts_.size();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const FlowArrival& a = arrivals[i];
    const auto reject = [i](auto... what) {
      std::ostringstream msg;
      msg << "traffic arrival " << i << ": ";
      (msg << ... << what);
      throw std::invalid_argument(msg.str());
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
  if (arrivals.empty()) return;  // Nothing scheduled: zero perturbation.
  arrivals_ = std::move(arrivals);
  next_ = 0;
  flows_.assign(n * n, nullptr);
  if (lane_of_ == nullptr) {
    records_.reserve(arrivals_.size());
    timer_.arm_at(arrivals_.front().at);
    return;
  }

  // Lane mode. Channels are created up front, walking the arrival list in
  // its serial order, so the cluster assigns the exact flow ids a serial
  // replay's lazy first-use creation would — lanes then only look them up.
  for (const FlowArrival& a : arrivals_) flow_for(a.src, a.dst);
  // Records are written by arrival index: slots are disjoint across lanes,
  // and posted slots read back in arrival order == serial push order.
  records_.assign(arrivals_.size(), FctRecord{});
  posted_flags_.assign(arrivals_.size(), 0);

  lane_states_.reserve(static_cast<std::size_t>(lanes_));
  for (int i = 0; i < lanes_; ++i) {
    lane_states_.push_back(std::make_unique<Lane>(sim_, this, i));
  }
  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    const FlowArrival& a = arrivals_[i];
    const int lane = lane_of_(hosts_[static_cast<std::size_t>(a.src)]);
    assert(lane >= 0 && lane < lanes_ && "lane map out of range");
    lane_states_[static_cast<std::size_t>(lane)]->order.push_back(i);
  }
  for (int i = 0; i < lanes_; ++i) {
    Lane& lane = *lane_states_[static_cast<std::size_t>(i)];
    if (lane.order.empty()) continue;
    // First arm binds the timer's queue slot: do it in the lane's shard so
    // every replay event of this lane runs there.
    sim::Simulator::ShardGuard guard(sim_, i);
    lane.timer.arm_at(arrivals_[lane.order.front()].at);
  }
}

void TrafficSource::install(const TrafficConfig& cfg) {
  install(generate_arrivals(cfg, static_cast<int>(hosts_.size())));
}

const std::vector<FctRecord>& TrafficSource::records() const {
  if (!lane_states_.empty() && !compacted_) {
    // Compact only once the replay has drained: dropping slots while lanes
    // could still post would invalidate the arrival-index addressing.
    bool drained = true;
    for (const auto& lane : lane_states_) {
      if (lane->next < lane->order.size()) drained = false;
    }
    if (drained) {
      std::vector<FctRecord> kept;
      kept.reserve(records_.size());
      for (std::size_t i = 0; i < records_.size(); ++i) {
        if (posted_flags_[i] != 0) kept.push_back(records_[i]);
      }
      records_ = std::move(kept);
      compacted_ = true;
    }
  }
  return records_;
}

std::size_t TrafficSource::posted() const {
  if (lane_states_.empty()) return posted_;
  std::size_t n = 0;
  for (const auto& lane : lane_states_) n += lane->posted;
  return n;
}

std::size_t TrafficSource::completed() const {
  if (lane_states_.empty()) return completed_;
  std::size_t n = 0;
  for (const auto& lane : lane_states_) n += lane->completed;
  return n;
}

std::int64_t TrafficSource::bytes_posted() const {
  if (lane_states_.empty()) return bytes_posted_;
  std::int64_t n = 0;
  for (const auto& lane : lane_states_) n += lane->bytes_posted;
  return n;
}

std::int64_t TrafficSource::bytes_completed() const {
  if (lane_states_.empty()) return bytes_completed_;
  std::int64_t n = 0;
  for (const auto& lane : lane_states_) n += lane->bytes_completed;
  return n;
}

std::vector<double> TrafficSource::completed_fcts_seconds() const {
  std::vector<double> out;
  out.reserve(completed());
  for (const FctRecord& r : records()) {
    if (r.done()) out.push_back(r.fct_seconds());
  }
  return out;
}

void TrafficSource::on_timer() {
  while (next_ < arrivals_.size() && arrivals_[next_].at <= sim_.now()) {
    post(next_, nullptr);
    ++next_;
  }
  if (next_ < arrivals_.size()) timer_.arm_at(arrivals_[next_].at);
}

void TrafficSource::on_lane_timer(int lane_index) {
  Lane& lane = *lane_states_[static_cast<std::size_t>(lane_index)];
  while (lane.next < lane.order.size() &&
         arrivals_[lane.order[lane.next]].at <= sim_.now()) {
    post(lane.order[lane.next], &lane);
    ++lane.next;
  }
  if (lane.next < lane.order.size()) {
    lane.timer.arm_at(arrivals_[lane.order[lane.next]].at);
  }
}

void TrafficSource::post(std::size_t index, Lane* lane) {
  const FlowArrival& a = arrivals_[index];
  workload::Channel* flow = flow_for(a.src, a.dst);

  std::size_t record_index;
  if (lane == nullptr) {
    record_index = records_.size();
    records_.push_back(FctRecord{sim_.now(), -1, a.bytes, a.src, a.dst});
    ++posted_;
    bytes_posted_ += a.bytes;
  } else {
    record_index = index;
    records_[index] = FctRecord{sim_.now(), -1, a.bytes, a.src, a.dst};
    posted_flags_[index] = 1;
    ++lane->posted;
    lane->bytes_posted += a.bytes;
  }

  if (auto* t = telemetry::tracer_for(sim_, telemetry::Category::kTraffic)) {
    t->instant(telemetry::Category::kTraffic, "traffic_arrival", sim_.now(),
               telemetry::track_traffic(), "bytes",
               static_cast<double>(a.bytes));
  }

  flow->send_message(a.bytes, [this, record_index, lane](sim::SimTime when) {
    FctRecord& r = records_[record_index];
    r.completed = when;
    if (lane == nullptr) {
      ++completed_;
      bytes_completed_ += r.bytes;
    } else {
      ++lane->completed;
      lane->bytes_completed += r.bytes;
    }
    if (auto* t =
            telemetry::tracer_for(sim_, telemetry::Category::kTraffic)) {
      t->instant(telemetry::Category::kTraffic, "traffic_complete", when,
                 telemetry::track_traffic(), "fct_s", r.fct_seconds());
    }
  });
}

workload::Channel* TrafficSource::flow_for(std::int32_t src, std::int32_t dst) {
  // install() validated the pair. Lane mode after install: every channel
  // exists and lanes run concurrently, so this is a read.
  workload::Channel*& channel =
      flows_[static_cast<std::size_t>(src) * hosts_.size() +
             static_cast<std::size_t>(dst)];
  if (channel == nullptr) {
    assert(lane_states_.empty() && "lane-mode channel missing from pre-create");
    workload::FlowSpec fs;
    fs.src = hosts_[static_cast<std::size_t>(src)];
    fs.dst = hosts_[static_cast<std::size_t>(dst)];
    channel = cluster_.add_channel(fs, opts_.cc, opts_.sender, opts_.receiver);
  }
  return channel;
}

}  // namespace mltcp::traffic
