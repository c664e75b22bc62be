#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runner/thread_pool.hpp"

namespace mltcp::runner {

/// How a campaign is executed. threads == 0 picks the hardware concurrency;
/// threads == 1 is the serial reference execution. Because results are
/// always keyed by spec index, every thread count produces byte-identical
/// aggregated output — the count only changes wall-clock time.
struct CampaignOptions {
  int threads = 0;
};

/// Reads the MLTCP_THREADS environment variable (0 or unset = hardware
/// concurrency) so any campaign binary can be forced serial or to a fixed
/// parallelism without a rebuild. Exits 2 on a value that is not an integer
/// >= 0 (see int_from_env).
CampaignOptions options_from_env();

/// Reads the integer environment variable `name`, or `fallback` when it is
/// unset. A value that is not an integer >= `min` is reported on stderr,
/// naming the variable and the value, and the process exits 2: a typo must
/// never run a different campaign than the one asked for.
int int_from_env(const char* name, int fallback, int min);

/// printf-style text accumulator. Campaign bodies run concurrently, so they
/// must not write to stdout directly; they build a Report instead and the
/// campaign prints the reports in spec order once everything has finished —
/// making parallel terminal output byte-identical to a serial run.
class Report {
 public:
  void addf(const char* fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
      __attribute__((format(printf, 2, 3)))
#endif
      ;
  void add(const std::string& text) { text_ += text; }

  const std::string& text() const { return text_; }
  bool empty() const { return text_.empty(); }

 private:
  std::string text_;
};

/// Runs body(specs[i], i) for every spec across the pool and returns the
/// results in spec order, regardless of completion order. The generic core:
/// each bench defines its own Spec/Result types (a Spec must be
/// self-contained — config + seed, no pointers into shared mutable state,
/// because bodies execute on different threads).
template <typename Spec, typename Result>
std::vector<Result> run_campaign(
    const std::vector<Spec>& specs,
    const std::function<Result(const Spec&, std::size_t)>& body,
    const CampaignOptions& opts = {}) {
  std::vector<std::optional<Result>> slots(specs.size());
  TaskPool pool(opts.threads);
  pool.run(specs.size(), [&](std::size_t i) { slots[i] = body(specs[i], i); });
  std::vector<Result> ordered;
  ordered.reserve(specs.size());
  for (std::optional<Result>& slot : slots) {
    ordered.push_back(std::move(*slot));
  }
  return ordered;
}

/// One self-contained simulation run of a campaign: a label for reports,
/// a seed for whatever randomness the body wants, and the body itself,
/// which owns its entire world (Simulator, topology, workload) and returns
/// its text report. Used by benches whose per-run result is "what to print".
struct SimSpec {
  std::string name;
  std::uint64_t seed = 1;
  std::function<Report(const SimSpec&)> run;
};

/// Executes the specs across the pool and prints each report to stdout in
/// spec order. Returns the reports (also in spec order).
std::vector<Report> run_and_print(const std::vector<SimSpec>& specs,
                                  const CampaignOptions& opts = {});

}  // namespace mltcp::runner
