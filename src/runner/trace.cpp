#include "runner/trace.hpp"

namespace mltcp::runner {

std::string trace_path(const std::string& dir, const std::string& base,
                       std::size_t run_index) {
  return dir + "/" + base + ".run" + std::to_string(run_index) +
         ".trace.json";
}

RunTrace::RunTrace(const std::string& path, std::uint32_t categories,
                   std::size_t ring_capacity)
    : sink_(path),
      tracer_(telemetry::Tracer::Config{categories, ring_capacity}) {
  tracer_.add_sink(&sink_);
}

RunTrace::~RunTrace() { finish(); }

}  // namespace mltcp::runner
