#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace mltcp::perf {

/// The layer boundaries the traced run times, one span name each. The
/// benchmark reaches every one of them through a public seam of the
/// simulator (see layers.hpp); nothing inside the simulator is instrumented.
enum class Layer : std::uint8_t {
  kQueue,        ///< net::QueueDiscipline enqueue / dequeue / enqueue_dequeue.
  kCcOnAck,      ///< tcp::CongestionControl::on_ack.
  kCcOnLoss,     ///< tcp::CongestionControl::on_loss.
  kCcOnTimeout,  ///< tcp::CongestionControl::on_timeout.
  kMltcpOnAck,   ///< tcp::WindowGain::on_ack of core::MltcpGain.
  kSendMessage,  ///< workload::Channel::send_message.
  kOnComplete,   ///< The message-completion callback into the workload.
  kCount,
};

const char* layer_name(Layer layer);

/// What timing one span costs, measured on empty spans: `clock_ns` is the
/// part inside the span's own interval, `span_ns` the whole begin/end pair.
struct SpanCost {
  double clock_ns = 0.0;
  double span_ns = 0.0;
};

/// Per-layer totals with the tracer's own cost taken out: `self_ns` is the
/// layer's span time minus the cost of those spans and minus the time of
/// the spans nested in them (their cost included).
struct LayerTotals {
  std::int64_t calls = 0;
  double self_ns = 0.0;
};

/// In-memory span recorder for one single-threaded run. Keeps raw sums per
/// layer (corrected for the measured SpanCost when read) plus the first
/// `max_records` spans (name, start, end, parent) in a preallocated buffer
/// that is written out as a Chrome trace after the run; recording allocates
/// nothing.
class SpanTracer {
 public:
  explicit SpanTracer(std::size_t max_records);

  void begin(Layer layer) {
    if (depth_ == kMaxDepth) std::abort();  // Spans never nest this deep.
    Frame& f = stack_[depth_];
    f.layer = layer;
    f.child_ns = 0.0;
    f.children = 0;
    f.descendants = 0;
    f.record = -1;
    if (records_.size() < max_records_) {
      f.record = static_cast<std::int32_t>(records_.size());
      records_.push_back(
          Record{0, 0, depth_ > 0 ? stack_[depth_ - 1].record : -1, layer});
    }
    ++depth_;
    f.start = now_ns();
  }

  void end() {
    const std::int64_t t = now_ns();
    const Frame& f = stack_[--depth_];
    const auto raw = static_cast<double>(t - f.start);
    Raw& r = raw_[static_cast<std::size_t>(f.layer)];
    ++r.calls;
    r.self_ns += raw - f.child_ns;
    r.children += f.children;
    if (f.record >= 0) {
      Record& rec = records_[static_cast<std::size_t>(f.record)];
      rec.start = f.start;
      rec.end = t;
    }
    if (depth_ > 0) {
      Frame& parent = stack_[depth_ - 1];
      parent.child_ns += raw;
      ++parent.children;
      parent.descendants += f.descendants + 1;
    } else {
      ++top_.calls;
      top_.ns += raw;
      top_.descendants += f.descendants;
    }
  }

  LayerTotals totals(Layer layer, const SpanCost& cost) const;
  /// Spans closed so far.
  std::int64_t spans() const { return top_.calls + top_.descendants; }
  /// Time inside top-level spans: run wall minus this minus
  /// spans() * cost.span_ns is the time spent outside every timed layer.
  double top_level_ns(const SpanCost& cost) const;

  /// Writes the recorded spans as Chrome trace "X" events (microseconds
  /// since construction), each with its parent's record index.
  bool write_chrome_trace(const std::string& path) const;

 private:
  static constexpr int kMaxDepth = 64;

  struct Frame {
    Layer layer = Layer::kQueue;
    std::int64_t start = 0;
    double child_ns = 0.0;
    std::int64_t children = 0;
    std::int64_t descendants = 0;
    std::int32_t record = -1;
  };
  /// Uncorrected sums; the correction is linear in the span counts.
  struct Raw {
    std::int64_t calls = 0;
    double self_ns = 0.0;
    std::int64_t children = 0;
  };
  struct Top {
    std::int64_t calls = 0;
    double ns = 0.0;
    std::int64_t descendants = 0;
  };
  struct Record {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t parent = -1;
    Layer layer = Layer::kQueue;
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  friend SpanCost measure_span_cost();

  std::size_t max_records_;
  std::vector<Record> records_;
  std::array<Frame, kMaxDepth> stack_{};
  int depth_ = 0;
  std::array<Raw, static_cast<std::size_t>(Layer::kCount)> raw_{};
  Top top_;
  std::int64_t epoch_ns_;
};

/// Times empty spans on a scratch tracer. Call it when the CPU is as busy
/// as during the run (after the run, say); the first round is a warm-up.
SpanCost measure_span_cost();

/// Times the enclosing scope as one span of `layer`.
class SpanScope {
 public:
  SpanScope(SpanTracer& tracer, Layer layer) : tracer_(tracer) {
    tracer_.begin(layer);
  }
  ~SpanScope() { tracer_.end(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanTracer& tracer_;
};

}  // namespace mltcp::perf
