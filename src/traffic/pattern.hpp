#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace mltcp::traffic {

/// Spatial structure of the generated traffic matrix.
enum class Pattern {
  /// Poisson arrivals between uniformly random distinct host pairs — the
  /// unstructured "datacenter background" baseline of the FCT literature.
  kPoisson,
  /// Synchronized N-to-1 bursts: every epoch, `incast_fanin` senders fire a
  /// short flow at the same aggregator host simultaneously (partition/
  /// aggregate, the storage-read / query-response killer pattern).
  kIncast,
  /// Tornado: host i sends to host (i + stride) mod n, with the stride
  /// advancing every epoch — a rotating permutation that keeps every host
  /// pair loaded in turn and stresses ECMP rebalancing.
  kTornado,
  /// All-to-all: every epoch each host sends one flow to every other host —
  /// the shuffle-heavy worst case (n·(n-1) flows per epoch).
  kAllToAll,
  /// A fixed random permutation (seeded, bijective, fixpoint-free for
  /// n > 1): host i sends Poisson-timed flows to perm[i] for the whole run —
  /// persistent pairwise load with no spatial churn.
  kPermutation,
};

/// Static display name ("poisson", "incast", ...), for reports and CSVs.
const char* pattern_name(Pattern p);

/// All five patterns, in declaration order (campaign sweeps iterate this).
const std::vector<Pattern>& all_patterns();

/// Flow-size distribution of one generated arrival.
enum class SizeDist {
  kFixed,        ///< Every flow carries exactly `mean_bytes`.
  kExponential,  ///< Exponential with mean `mean_bytes` (light tail).
  /// Bounded Pareto with shape `pareto_shape` and mean `mean_bytes`,
  /// truncated at `max_bytes` — the heavy tail that makes p99/p999 FCT
  /// tables mean something.
  kPareto,
};

/// One generated transfer: at time `at`, `bytes` are posted from host index
/// `src` to host index `dst` (indices into the host list handed to the
/// driver, not NodeIds — a config stays topology-agnostic).
struct FlowArrival {
  sim::SimTime at = 0;
  std::int32_t src = 0;
  std::int32_t dst = 0;
  std::int64_t bytes = 0;

  bool operator==(const FlowArrival&) const = default;
};

/// Seeded description of one traffic-matrix stream. A pure value: two
/// configs with equal fields always expand to identical arrival vectors, on
/// any thread — all randomness is drawn from splitmix64-derived streams of
/// `seed`, never from shared state (the determinism contract campaign runs
/// rely on, mirroring the per-link fault streams and flow-hash ECMP).
struct TrafficConfig {
  Pattern pattern = Pattern::kPoisson;
  SizeDist size_dist = SizeDist::kFixed;

  /// Mean flow size (exact size for kFixed).
  std::int64_t mean_bytes = 100'000;
  /// Pareto shape (tail index); must be > 1 so the mean exists. 1.05–1.3 is
  /// the web-search/data-mining range.
  double pareto_shape = 1.3;
  /// Truncation of the Pareto tail (0 = 1000x the mean).
  std::int64_t max_bytes = 0;

  /// kPoisson / kPermutation: mean arrival rate over the whole fabric.
  double flows_per_second = 100.0;

  /// kIncast / kTornado / kAllToAll: one synchronized round per epoch.
  sim::SimTime epoch = sim::milliseconds(100);

  /// kIncast: senders per burst (capped at n_hosts - 1). 0 = every other
  /// host.
  int incast_fanin = 0;
  /// kIncast: aggregator host index; -1 rotates the victim each epoch.
  int incast_victim = -1;

  /// Generation window: arrivals land in [start, stop).
  sim::SimTime start = 0;
  sim::SimTime stop = sim::seconds(1);

  std::uint64_t seed = 1;
};

/// Expands a config into its full arrival list over `n_hosts` hosts, in
/// time order: every pattern emits its arrivals that way (equal instants in
/// generation order), so no sort runs. Pure function of (config, n_hosts):
/// campaign bodies call this inside the run with a per-run seed, so serial
/// and MLTCP_THREADS=N executions see byte-identical traffic.
std::vector<FlowArrival> generate_arrivals(const TrafficConfig& cfg,
                                           int n_hosts);

}  // namespace mltcp::traffic
