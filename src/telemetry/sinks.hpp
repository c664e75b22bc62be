#pragma once

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "telemetry/trace_event.hpp"

namespace mltcp::sim {
class CsvWriter;
}

namespace mltcp::telemetry {

/// Destination for a stream of TraceEvents. Sinks receive every enabled
/// event as it is emitted (or a ring dump, oldest first) and are finished
/// exactly once.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& ev) = 0;
  /// Flushes/closes the sink's output. Idempotent.
  virtual void finish() {}
};

/// Collects events in memory — the sink tests and assertions use.
class InMemorySink : public TraceSink {
 public:
  void on_event(const TraceEvent& ev) override { events_.push_back(ev); }

  const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

  /// Events with the given name, in emission order.
  std::vector<TraceEvent> named(const std::string& name) const;
  std::size_t count(const std::string& name) const;

 private:
  std::vector<TraceEvent> events_;
};

/// Streams events as CSV rows (one row per event, RFC 4180 quoting via
/// sim::CsvWriter). Columns: time_s, category, type, name, track, v0_name,
/// v0, v1_name, v1.
class CsvTraceSink : public TraceSink {
 public:
  explicit CsvTraceSink(const std::string& path);
  ~CsvTraceSink() override;

  void on_event(const TraceEvent& ev) override;
  void finish() override;

 private:
  std::unique_ptr<sim::CsvWriter> csv_;
};

/// Streams events in the Chrome trace-event JSON format, loadable directly
/// in ui.perfetto.dev (or chrome://tracing): counters become counter tracks,
/// begin/end pairs become slices, instants become markers. Each telemetry
/// track renders as its own named process ("flow 3", "job 1", ...).
class ChromeTraceSink : public TraceSink {
 public:
  /// Opens `path` for writing. Throws std::runtime_error on failure.
  explicit ChromeTraceSink(const std::string& path);
  ~ChromeTraceSink() override;

  ChromeTraceSink(const ChromeTraceSink&) = delete;
  ChromeTraceSink& operator=(const ChromeTraceSink&) = delete;

  void on_event(const TraceEvent& ev) override;
  /// Writes the closing bracket and closes the file. Idempotent.
  void finish() override;

  std::uint64_t events_written() const { return written_; }

 private:
  void write_record(const std::string& json);
  void ensure_track_metadata(std::uint64_t track);

  std::FILE* f_ = nullptr;
  bool any_ = false;
  std::uint64_t written_ = 0;
  std::set<std::uint64_t> known_tracks_;
};

/// Human-readable name of a telemetry track id, decoding every namespace in
/// trace_event.hpp: "flow 3", "job 0", "link 7", "switch 2", "scenario",
/// "traffic" or "flowsim".
std::string track_name(std::uint64_t track);

}  // namespace mltcp::telemetry
