#pragma once

#include <cstdint>
#include <string>

#include "telemetry/sinks.hpp"
#include "telemetry/tracer.hpp"

namespace mltcp::runner {

/// Index-keyed Chrome-trace path for one campaign run:
/// `<dir>/<base>.run<index>.trace.json`. Keying by run index (not by worker
/// or completion order) is what lets serial and parallel campaigns produce
/// byte-identical files.
std::string trace_path(const std::string& dir, const std::string& base,
                       std::size_t run_index);

/// Per-run tracing bundle for campaign bodies: a Tracer streaming to a
/// Chrome-trace JSON file. Construct one inside the run body (each run owns
/// its world), attach it to the run's Simulator, and finish() (or let the
/// destructor) close the file:
///
///   RunTrace trace(trace_path(dir, "fig6", index), Category::kJob |
///                  Category::kFlow | Category::kTcp | Category::kMltcp);
///   trace.attach(sim);
///   ... run ...
///   trace.finish();
class RunTrace {
 public:
  /// Opens the trace file (throws std::runtime_error on failure).
  /// `ring_capacity > 0` additionally enables the flight recorder.
  RunTrace(const std::string& path, std::uint32_t categories,
           std::size_t ring_capacity = 0);
  ~RunTrace();

  RunTrace(const RunTrace&) = delete;
  RunTrace& operator=(const RunTrace&) = delete;

  /// Points `sim` at this bundle's tracer.
  void attach(sim::Simulator& sim) { sim.set_tracer(&tracer_); }

  telemetry::Tracer& tracer() { return tracer_; }
  const telemetry::ChromeTraceSink& sink() const { return sink_; }

  /// Closes the JSON file. Idempotent; also run by the destructor.
  void finish() { sink_.finish(); }

 private:
  telemetry::ChromeTraceSink sink_;
  telemetry::Tracer tracer_;
};

}  // namespace mltcp::runner
