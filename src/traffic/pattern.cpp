#include "traffic/pattern.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "sim/random.hpp"

namespace mltcp::traffic {

const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::kPoisson: return "poisson";
    case Pattern::kIncast: return "incast";
    case Pattern::kTornado: return "tornado";
    case Pattern::kAllToAll: return "all_to_all";
    case Pattern::kPermutation: return "permutation";
  }
  return "unknown";
}

const std::vector<Pattern>& all_patterns() {
  static const std::vector<Pattern> kAll = {
      Pattern::kPoisson, Pattern::kIncast, Pattern::kTornado,
      Pattern::kAllToAll, Pattern::kPermutation};
  return kAll;
}

namespace {

/// Salts for derive_seed, one per independent stream a config may consume.
/// Distinct constants so adding a stream never shifts an existing one.
constexpr std::uint64_t kSizeSalt = 0x5349u;     // "SI"
constexpr std::uint64_t kArrivalSalt = 0x4152u;  // "AR"
constexpr std::uint64_t kPairSalt = 0x5041u;     // "PA"

/// The flow-size stream of one generate_arrivals call: its RNG and the
/// distribution's constants, computed once rather than once per draw.
class SizeStream {
 public:
  SizeStream(const TrafficConfig& cfg, sim::Rng rng)
      : cfg_(cfg), rng_(std::move(rng)) {
    if (cfg.size_dist != SizeDist::kPareto) return;
    // Bounded Pareto on [xm, max]: inverse-CDF sampling. The scale xm is
    // chosen so the *unbounded* mean is cfg.mean_bytes
    // (mean = shape/(shape-1) * xm); truncation pulls the realized mean
    // slightly below, which is fine for a workload knob.
    const double shape = std::max(1.01, cfg.pareto_shape);
    xm_ = static_cast<double>(cfg.mean_bytes) * (shape - 1.0) / shape;
    const double xmax =
        cfg.max_bytes > 0 ? static_cast<double>(cfg.max_bytes)
                          : 1000.0 * static_cast<double>(cfg.mean_bytes);
    one_minus_ha_ = 1.0 - std::pow(xm_ / xmax, shape);
    inv_shape_ = 1.0 / shape;
  }

  /// Draws one flow size. Sizes are at least 1 byte.
  std::int64_t next() {
    switch (cfg_.size_dist) {
      case SizeDist::kFixed:
        return std::max<std::int64_t>(1, cfg_.mean_bytes);
      case SizeDist::kExponential:
        return std::max<std::int64_t>(
            1, std::llround(rng_.exponential(
                   static_cast<double>(cfg_.mean_bytes))));
      case SizeDist::kPareto: {
        const double u = rng_.uniform();
        const double x =
            xm_ / std::pow(1.0 - u * one_minus_ha_, inv_shape_);
        return std::max<std::int64_t>(1, std::llround(x));
      }
    }
    return 1;
  }

 private:
  const TrafficConfig& cfg_;
  sim::Rng rng_;
  double xm_ = 0.0;
  double one_minus_ha_ = 0.0;
  double inv_shape_ = 0.0;
};

void poisson_pairs(const TrafficConfig& cfg, int n_hosts,
                   const std::vector<std::int32_t>* perm, sim::Rng& pair_rng,
                   sim::Rng& arrival_rng, SizeStream& sizes,
                   std::vector<FlowArrival>& out) {
  if (cfg.flows_per_second <= 0.0) return;
  // The count is Poisson: reserve its mean plus eight standard deviations
  // so the list is built without regrowing.
  const double expected =
      cfg.flows_per_second * sim::to_seconds(cfg.stop - cfg.start);
  out.reserve(static_cast<std::size_t>(expected + 8.0 * std::sqrt(expected) +
                                       64.0));
  const double mean_gap_s = 1.0 / cfg.flows_per_second;
  sim::SimTime t = cfg.start;
  while (true) {
    t += sim::from_seconds(arrival_rng.exponential(mean_gap_s));
    if (t >= cfg.stop) break;
    std::int32_t src;
    std::int32_t dst;
    if (perm != nullptr) {
      src = static_cast<std::int32_t>(
          pair_rng.uniform_int(0, n_hosts - 1));
      dst = (*perm)[static_cast<std::size_t>(src)];
    } else {
      src = static_cast<std::int32_t>(
          pair_rng.uniform_int(0, n_hosts - 1));
      dst = static_cast<std::int32_t>(
          pair_rng.uniform_int(0, n_hosts - 2));
      if (dst >= src) ++dst;  // uniform over the n-1 non-self hosts
    }
    out.push_back(FlowArrival{t, src, dst, sizes.next()});
  }
}

void incast_epochs(const TrafficConfig& cfg, int n_hosts, SizeStream& sizes,
                   std::vector<FlowArrival>& out) {
  const int fanin =
      cfg.incast_fanin > 0 ? std::min(cfg.incast_fanin, n_hosts - 1)
                           : n_hosts - 1;
  assert(cfg.epoch > 0);
  int round = 0;
  for (sim::SimTime t = cfg.start; t < cfg.stop; t += cfg.epoch, ++round) {
    const std::int32_t victim =
        cfg.incast_victim >= 0
            ? static_cast<std::int32_t>(cfg.incast_victim % n_hosts)
            : static_cast<std::int32_t>(round % n_hosts);
    // Senders walk away from the victim in index order, so the burst is a
    // pure function of (round, fanin) — no RNG draw decides who fires.
    for (int k = 1; k <= fanin; ++k) {
      const auto src =
          static_cast<std::int32_t>((victim + k) % n_hosts);
      out.push_back(FlowArrival{t, src, victim, sizes.next()});
    }
  }
}

void tornado_epochs(const TrafficConfig& cfg, int n_hosts, SizeStream& sizes,
                    std::vector<FlowArrival>& out) {
  assert(cfg.epoch > 0);
  int round = 0;
  for (sim::SimTime t = cfg.start; t < cfg.stop; t += cfg.epoch, ++round) {
    const int stride = 1 + round % (n_hosts - 1);  // never self-to-self
    for (std::int32_t src = 0; src < n_hosts; ++src) {
      const auto dst = static_cast<std::int32_t>((src + stride) % n_hosts);
      out.push_back(FlowArrival{t, src, dst, sizes.next()});
    }
  }
}

void all_to_all_epochs(const TrafficConfig& cfg, int n_hosts,
                       SizeStream& sizes, std::vector<FlowArrival>& out) {
  assert(cfg.epoch > 0);
  for (sim::SimTime t = cfg.start; t < cfg.stop; t += cfg.epoch) {
    for (std::int32_t src = 0; src < n_hosts; ++src) {
      for (std::int32_t dst = 0; dst < n_hosts; ++dst) {
        if (dst == src) continue;
        out.push_back(FlowArrival{t, src, dst, sizes.next()});
      }
    }
  }
}

/// Seeded fixpoint-free permutation: a Fisher-Yates shuffle re-drawn (with
/// fresh randomness, so it terminates) until no host maps to itself.
std::vector<std::int32_t> make_permutation(int n_hosts, sim::Rng& rng) {
  std::vector<std::int32_t> perm(static_cast<std::size_t>(n_hosts));
  while (true) {
    for (int i = 0; i < n_hosts; ++i) perm[static_cast<std::size_t>(i)] = i;
    for (int i = n_hosts - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(0, i));
      std::swap(perm[static_cast<std::size_t>(i)], perm[j]);
    }
    bool fixpoint = false;
    for (int i = 0; i < n_hosts; ++i) {
      if (perm[static_cast<std::size_t>(i)] == i) fixpoint = true;
    }
    if (!fixpoint || n_hosts < 2) return perm;
  }
}

}  // namespace

std::vector<FlowArrival> generate_arrivals(const TrafficConfig& cfg,
                                           int n_hosts) {
  std::vector<FlowArrival> out;
  if (n_hosts < 2 || cfg.stop <= cfg.start) return out;

  // Independent streams per concern: the size draw of arrival k never
  // depends on how pairs were chosen, so switching patterns with the same
  // seed keeps size sequences comparable.
  SizeStream sizes(cfg, sim::Rng(sim::derive_seed(cfg.seed, kSizeSalt),
                                 sim::derive_seed(cfg.seed, kSizeSalt + 1)));
  sim::Rng arrival_rng(sim::derive_seed(cfg.seed, kArrivalSalt),
                       sim::derive_seed(cfg.seed, kArrivalSalt + 1));
  sim::Rng pair_rng(sim::derive_seed(cfg.seed, kPairSalt),
                    sim::derive_seed(cfg.seed, kPairSalt + 1));

  switch (cfg.pattern) {
    case Pattern::kPoisson:
      poisson_pairs(cfg, n_hosts, nullptr, pair_rng, arrival_rng, sizes, out);
      break;
    case Pattern::kIncast:
      incast_epochs(cfg, n_hosts, sizes, out);
      break;
    case Pattern::kTornado:
      tornado_epochs(cfg, n_hosts, sizes, out);
      break;
    case Pattern::kAllToAll:
      all_to_all_epochs(cfg, n_hosts, sizes, out);
      break;
    case Pattern::kPermutation: {
      const std::vector<std::int32_t> perm =
          make_permutation(n_hosts, pair_rng);
      poisson_pairs(cfg, n_hosts, &perm, pair_rng, arrival_rng, sizes, out);
      break;
    }
  }

  // Every pattern emits in time order (equal instants in generation order),
  // so the list needs no sort; TrafficSource::install rejects one that
  // goes back in time.
  return out;
}

}  // namespace mltcp::traffic
