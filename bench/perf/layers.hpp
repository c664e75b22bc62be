#pragma once

// Decorators the traced run installs at the simulator's public seams, plus
// the packet backend every packet workload runs on. Each decorator forwards
// to the object it wraps and opens one span around the forwarded call, so
// the traced run simulates exactly what the untraced run does; the workload
// digests compare the two (see mltcp_perf.cpp).

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/queue.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "tcp/cong_control.hpp"
#include "tcp/flow.hpp"
#include "workload/backend.hpp"

namespace mltcp::perf {

/// Times every call into one link's queue discipline. The inner queue keeps
/// its own statistics; read them through inner().
class TimedQueue final : public net::QueueDiscipline {
 public:
  TimedQueue(std::unique_ptr<net::QueueDiscipline> inner, SpanTracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  bool enqueue(const net::Packet& pkt, sim::SimTime now) override {
    SpanScope span(tracer_, Layer::kQueue);
    return inner_->enqueue(pkt, now);
  }
  std::optional<net::Packet> dequeue(sim::SimTime now) override {
    SpanScope span(tracer_, Layer::kQueue);
    return inner_->dequeue(now);
  }
  std::optional<net::Packet> enqueue_dequeue(const net::Packet& pkt,
                                             sim::SimTime now) override {
    SpanScope span(tracer_, Layer::kQueue);
    return inner_->enqueue_dequeue(pkt, now);
  }
  bool empty() const override { return inner_->empty(); }
  std::int64_t backlog_bytes() const override {
    return inner_->backlog_bytes();
  }
  std::size_t backlog_packets() const override {
    return inner_->backlog_packets();
  }
  void set_trace_context(sim::Simulator* sim, const char* name,
                         std::uint64_t track) override {
    inner_->set_trace_context(sim, name, track);
  }

 private:
  std::unique_ptr<net::QueueDiscipline> inner_;
  SpanTracer& tracer_;
};

inline net::QueueFactory timed_queue_factory(net::QueueFactory inner,
                                             SpanTracer& tracer) {
  return [inner = std::move(inner), &tracer] {
    return std::make_unique<TimedQueue>(inner(), tracer);
  };
}

/// Times one flow's congestion controller. The base class holds an aliasing
/// pointer to the inner controller's WindowGain, so window_gain() still
/// returns the inner gain: flowsim's MltcpGain probe and the sender's direct
/// gain calls see exactly what they would without the decorator.
class TimedCC final : public tcp::CongestionControl {
 public:
  TimedCC(std::shared_ptr<tcp::CongestionControl> inner, SpanTracer& tracer)
      : CongestionControl(
            std::shared_ptr<tcp::WindowGain>(inner, &inner->window_gain())),
        inner_(std::move(inner)),
        tracer_(tracer) {}

  void on_ack(const tcp::AckContext& ctx) override {
    SpanScope span(tracer_, Layer::kCcOnAck);
    inner_->on_ack(ctx);
  }
  void on_loss(sim::SimTime now) override {
    SpanScope span(tracer_, Layer::kCcOnLoss);
    inner_->on_loss(now);
  }
  void on_timeout(sim::SimTime now) override {
    SpanScope span(tracer_, Layer::kCcOnTimeout);
    inner_->on_timeout(now);
  }
  void on_idle_restart(sim::SimTime now) override {
    inner_->on_idle_restart(now);
  }
  double cwnd() const override { return inner_->cwnd(); }
  double ssthresh() const override { return inner_->ssthresh(); }
  std::string name() const override { return inner_->name(); }
  double pacing_rate() const override { return inner_->pacing_rate(); }
  bool wants_ecn() const override { return inner_->wants_ecn(); }

 private:
  std::shared_ptr<tcp::CongestionControl> inner_;
  SpanTracer& tracer_;
};

inline tcp::CcFactory timed_cc_factory(tcp::CcFactory inner,
                                       SpanTracer& tracer) {
  return [inner = std::move(inner), &tracer] {
    return std::make_unique<TimedCC>(inner(), tracer);
  };
}

/// Times MLTCP's per-ACK byte accounting (the gain's on_ack). Packet
/// workloads only: flowsim recognises MLTCP channels by a dynamic_cast to
/// core::MltcpGain, which this wrapper would hide.
class TimedGain final : public tcp::WindowGain {
 public:
  TimedGain(std::shared_ptr<tcp::WindowGain> inner, SpanTracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void on_ack(const tcp::AckContext& ctx) override {
    SpanScope span(tracer_, Layer::kMltcpOnAck);
    inner_->on_ack(ctx);
  }
  double gain() const override { return inner_->gain(); }
  std::string name() const override { return inner_->name(); }
  void bind_telemetry(sim::Simulator* sim, std::int64_t flow_id) override {
    inner_->bind_telemetry(sim, flow_id);
  }

 private:
  std::shared_ptr<tcp::WindowGain> inner_;
  SpanTracer& tracer_;
};

/// Times message posting and the completion callback into the workload on
/// any backend's channels.
class TimedBackend final : public workload::Backend {
 public:
  TimedBackend(workload::Backend& inner, SpanTracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  workload::Channel* create_channel(const workload::ChannelSpec& spec)
      override {
    channels_.push_back(
        std::make_unique<Channel>(*inner_.create_channel(spec), tracer_));
    return channels_.back().get();
  }
  const char* name() const override { return inner_.name(); }

 private:
  class Channel final : public workload::Channel {
   public:
    Channel(workload::Channel& inner, SpanTracer& tracer)
        : inner_(inner), tracer_(tracer) {}

    void send_message(std::int64_t bytes, Completion on_complete) override {
      // Wrapping the callback allocates; do it outside the timed span.
      Completion timed = [&tracer = tracer_,
                          done = std::move(on_complete)](sim::SimTime when) {
        SpanScope span(tracer, Layer::kOnComplete);
        done(when);
      };
      SpanScope span(tracer_, Layer::kSendMessage);
      inner_.send_message(bytes, std::move(timed));
    }
    net::FlowId id() const override { return inner_.id(); }
    tcp::TcpFlow* tcp() override { return inner_.tcp(); }

   private:
    workload::Channel& inner_;
    SpanTracer& tracer_;
  };

  workload::Backend& inner_;
  SpanTracer& tracer_;
  std::vector<std::unique_ptr<Channel>> channels_;
};

/// The packet path as workload::Cluster builds it (one TcpFlow per channel,
/// same constructor arguments and flow ids), but owned here so the
/// benchmark can read every flow's SenderStats, including the connections a
/// TrafficSource opens lazily.
class PacketBackend final : public workload::Backend {
 public:
  explicit PacketBackend(sim::Simulator& simulator) : sim_(simulator) {}

  workload::Channel* create_channel(const workload::ChannelSpec& spec)
      override {
    flows_.push_back(std::make_unique<tcp::TcpFlow>(
        sim_, *spec.src, *spec.dst, spec.id, spec.cc(), spec.sender,
        spec.receiver));
    channels_.push_back(std::make_unique<Channel>(*flows_.back()));
    return channels_.back().get();
  }
  const char* name() const override { return "packet"; }

  const std::vector<std::unique_ptr<tcp::TcpFlow>>& flows() const {
    return flows_;
  }

 private:
  class Channel final : public workload::Channel {
   public:
    explicit Channel(tcp::TcpFlow& flow) : flow_(flow) {}
    void send_message(std::int64_t bytes, Completion on_complete) override {
      flow_.send_message(bytes, std::move(on_complete));
    }
    net::FlowId id() const override { return flow_.id(); }
    tcp::TcpFlow* tcp() override { return &flow_; }

   private:
    tcp::TcpFlow& flow_;
  };

  sim::Simulator& sim_;
  std::vector<std::unique_ptr<tcp::TcpFlow>> flows_;
  std::vector<std::unique_ptr<Channel>> channels_;
};

}  // namespace mltcp::perf
