#include "spans.hpp"

#include <algorithm>
#include <cstdio>

namespace mltcp::perf {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kQueue: return "net.queue";
    case Layer::kCcOnAck: return "tcp.cc.on_ack";
    case Layer::kCcOnLoss: return "tcp.cc.on_loss";
    case Layer::kCcOnTimeout: return "tcp.cc.on_timeout";
    case Layer::kMltcpOnAck: return "core.mltcp.on_ack";
    case Layer::kSendMessage: return "workload.send_message";
    case Layer::kOnComplete: return "workload.on_complete";
    case Layer::kCount: break;
  }
  return "?";
}

SpanTracer::SpanTracer(std::size_t max_records)
    : max_records_(max_records), epoch_ns_(now_ns()) {
  records_.reserve(max_records_);
}

// A span's interval holds its work, one clock read (clock_ns) and, for each
// span nested in it, that span's full cost (span_ns). A child therefore
// costs its parent its raw time plus span_ns - clock_ns.
LayerTotals SpanTracer::totals(Layer layer, const SpanCost& cost) const {
  const Raw& r = raw_[static_cast<std::size_t>(layer)];
  const auto calls = static_cast<double>(r.calls);
  LayerTotals t;
  t.calls = r.calls;
  t.self_ns = r.self_ns - calls * cost.clock_ns -
              static_cast<double>(r.children) * (cost.span_ns - cost.clock_ns);
  return t;
}

double SpanTracer::top_level_ns(const SpanCost& cost) const {
  return top_.ns - static_cast<double>(top_.calls) * cost.clock_ns -
         static_cast<double>(top_.descendants) * cost.span_ns;
}

SpanCost measure_span_cost() {
  constexpr int kPairs = 100'000;
  constexpr int kRounds = 8;
  std::vector<double> inside;
  std::vector<double> whole;
  for (int round = 0; round < kRounds; ++round) {
    SpanTracer scratch(0);  // Most spans of a run are past the record cap.
    const std::int64_t t0 = SpanTracer::now_ns();
    for (int i = 0; i < kPairs; ++i) {
      scratch.begin(Layer::kQueue);
      scratch.end();
    }
    const std::int64_t t1 = SpanTracer::now_ns();
    if (round == 0) continue;  // Warm-up.
    inside.push_back(scratch.raw_[0].self_ns / kPairs);  // No children.
    whole.push_back(static_cast<double>(t1 - t0) / kPairs);
  }
  const auto median = [](std::vector<double>& xs) {
    std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
    return xs[xs.size() / 2];
  };
  return SpanCost{median(inside), median(whole)};
}

bool SpanTracer::write_chrome_trace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", out);
  const char* sep = "";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end == 0) continue;  // Still open when the run ended.
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}",
                 sep, layer_name(r.layer),
                 static_cast<double>(r.start - epoch_ns_) / 1e3,
                 static_cast<double>(r.end - r.start) / 1e3, i, r.parent);
    sep = ",";
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace mltcp::perf
