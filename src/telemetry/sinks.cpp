#include "telemetry/sinks.hpp"

#include <cinttypes>
#include <stdexcept>

#include "sim/trace.hpp"

namespace mltcp::telemetry {

namespace {

const char* type_name(EventType t) {
  switch (t) {
    case EventType::kInstant: return "instant";
    case EventType::kBegin: return "begin";
    case EventType::kEnd: return "end";
    case EventType::kCounter: return "counter";
  }
  return "?";
}

const char* category_name(Category c) {
  switch (c) {
    case Category::kTcp: return "tcp";
    case Category::kTcpAck: return "tcp_ack";
    case Category::kQueue: return "queue";
    case Category::kMltcp: return "mltcp";
    case Category::kJob: return "job";
    case Category::kFlow: return "flow";
    case Category::kLink: return "link";
    case Category::kCustom: return "custom";
    case Category::kFault: return "fault";
    case Category::kTraffic: return "traffic";
    case Category::kFlowsim: return "flowsim";
  }
  return "?";
}

std::string json_string(const char* s) {
  std::string out = "\"";
  for (const char* p = s; p != nullptr && *p != '\0'; ++p) {
    if (*p == '"' || *p == '\\') out += '\\';
    out += *p;
  }
  out += '"';
  return out;
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Microsecond timestamp for the Chrome format; sim time is integer ns, so
/// three decimals render it exactly and deterministically.
std::string format_ts(sim::SimTime t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(t) / 1000.0);
  return buf;
}

}  // namespace

// -------------------------------------------------------------- InMemorySink

std::vector<TraceEvent> InMemorySink::named(const std::string& name) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& ev : events_) {
    if (name == ev.name) out.push_back(ev);
  }
  return out;
}

std::size_t InMemorySink::count(const std::string& name) const {
  std::size_t n = 0;
  for (const TraceEvent& ev : events_) {
    if (name == ev.name) ++n;
  }
  return n;
}

// -------------------------------------------------------------- CsvTraceSink

CsvTraceSink::CsvTraceSink(const std::string& path)
    : csv_(std::make_unique<sim::CsvWriter>(
          path, std::vector<std::string>{"time_s", "category", "type", "name",
                                         "track", "v0_name", "v0", "v1_name",
                                         "v1"})) {}

CsvTraceSink::~CsvTraceSink() = default;

void CsvTraceSink::on_event(const TraceEvent& ev) {
  if (csv_ == nullptr) return;
  char time_buf[64];
  std::snprintf(time_buf, sizeof(time_buf), "%.9f", sim::to_seconds(ev.when));
  csv_->row(std::vector<std::string>{
      time_buf, category_name(ev.category), type_name(ev.type), ev.name,
      std::to_string(ev.track), ev.v0_name != nullptr ? ev.v0_name : "",
      ev.v0_name != nullptr ? format_value(ev.v0) : "",
      ev.v1_name != nullptr ? ev.v1_name : "",
      ev.v1_name != nullptr ? format_value(ev.v1) : ""});
}

void CsvTraceSink::finish() { csv_.reset(); }

// ----------------------------------------------------------- ChromeTraceSink

std::string track_name(std::uint64_t track) {
  if (track == track_scenario()) return "scenario";
  if (track == track_traffic()) return "traffic";
  if (track == track_flowsim()) return "flowsim";
  if (track >= track_switch(0)) {
    return "switch " + std::to_string(track - track_switch(0));
  }
  if (track >= track_link(0)) {
    return "link " + std::to_string(track - track_link(0));
  }
  if (track >= track_job(0)) {
    return "job " + std::to_string(track - track_job(0));
  }
  return "flow " + std::to_string(track);
}

ChromeTraceSink::ChromeTraceSink(const std::string& path) {
  f_ = std::fopen(path.c_str(), "w");
  if (f_ == nullptr) {
    throw std::runtime_error("ChromeTraceSink: cannot open " + path);
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f_);
}

ChromeTraceSink::~ChromeTraceSink() { finish(); }

void ChromeTraceSink::write_record(const std::string& json) {
  if (any_) std::fputs(",\n", f_);
  any_ = true;
  std::fputs(json.c_str(), f_);
}

void ChromeTraceSink::ensure_track_metadata(std::uint64_t track) {
  if (!known_tracks_.insert(track).second) return;
  write_record("{\"ph\":\"M\",\"pid\":" + std::to_string(track) +
               ",\"name\":\"process_name\",\"args\":{\"name\":" +
               json_string(track_name(track).c_str()) + "}}");
}

void ChromeTraceSink::on_event(const TraceEvent& ev) {
  if (f_ == nullptr) return;
  ensure_track_metadata(ev.track);

  std::string rec = "{\"ph\":\"";
  switch (ev.type) {
    case EventType::kInstant: rec += 'i'; break;
    case EventType::kBegin: rec += 'B'; break;
    case EventType::kEnd: rec += 'E'; break;
    case EventType::kCounter: rec += 'C'; break;
  }
  rec += "\",\"pid\":" + std::to_string(ev.track) + ",\"tid\":0,\"ts\":" +
         format_ts(ev.when) + ",\"name\":" + json_string(ev.name) +
         ",\"cat\":" + json_string(category_name(ev.category));
  if (ev.type == EventType::kInstant) {
    rec += ",\"s\":\"p\"";  // process-scoped marker
  }
  if (ev.v0_name != nullptr || ev.v1_name != nullptr) {
    rec += ",\"args\":{";
    if (ev.v0_name != nullptr) {
      rec += json_string(ev.v0_name) + ":" + format_value(ev.v0);
    }
    if (ev.v1_name != nullptr) {
      if (ev.v0_name != nullptr) rec += ",";
      rec += json_string(ev.v1_name) + ":" + format_value(ev.v1);
    }
    rec += "}";
  }
  rec += "}";
  write_record(rec);
  ++written_;
}

void ChromeTraceSink::finish() {
  if (f_ == nullptr) return;
  std::fputs("\n]}\n", f_);
  std::fclose(f_);
  f_ = nullptr;
}

}  // namespace mltcp::telemetry
