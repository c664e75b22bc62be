// §5 "Fairness between MLTCP and TCP flows":
//  (1) Loss-response exponent: TCP throughput ~ 1/sqrt(p) (Mathis et al.);
//      the paper argues MLTCP-Reno behaves like ~1/p because its additive
//      increase grows with the bytes already sent. We sweep an injected
//      Bernoulli loss probability and fit the log-log slope for both.
//  (2) Coexistence: an MLTCP job sharing the bottleneck with a legacy Reno
//      bulk flow claims more than half the bandwidth but does not starve it.
//  (3) As (2), against the gpt2 training job.
//  (4) RTT-disparity sweep: two persistent flows of the same controller, one
//      with ~8x the propagation delay of the other, share the bottleneck.
//      Loss- and delay-based controllers favor the short path (window growth
//      is per-RTT); Gemini's RTT-compensated additive increase and BBR's
//      BDP-proportional model narrow the gap.
//  (5) Incast coexistence sweep: an 8-worker parameter-server job (each
//      iteration boundary is a synchronized incast burst into one server)
//      shares the bottleneck with a legacy Reno bulk flow, across the full
//      6-CC x {plain, mltcp} matrix. The MLTCP variants must speed up the
//      incast job without starving the legacy flow.

#include <cmath>
#include <cstdio>
#include <vector>

#include "analysis/metrics.hpp"
#include "bench_common.hpp"
#include "net/topology.hpp"
#include "tcp/flow.hpp"
#include "workload/collective.hpp"

namespace {

using namespace mltcp;
using bench::CcVariant;

/// Mean goodput (Gbps) of one periodic job over `iters` iterations on a
/// link with injected random loss.
double lossy_goodput(const tcp::CcFactory& cc, double loss_p) {
  sim::Simulator sim;
  net::DumbbellConfig dc;
  dc.hosts_per_side = 1;
  // A WAN-ish RTT (~4 ms) puts the flow into the loss-limited regime where
  // the Mathis relation is visible; with a microsecond RTT even tiny windows
  // saturate the link and throughput is insensitive to p.
  dc.bottleneck_delay = sim::milliseconds(2);
  dc.bottleneck_queue = net::make_random_drop_factory(loss_p, 512 * 1500);
  auto d = net::make_dumbbell(sim, dc);

  workload::Cluster cluster(sim);
  workload::JobSpec spec;
  spec.name = "probe";
  const std::int64_t bytes = 20'000'000;  // 20 MB per iteration
  spec.flows = workload::single_flow(d.left[0], d.right[0], bytes);
  spec.compute_time = sim::milliseconds(300);
  spec.max_iterations = 12;
  spec.cc = cc;
  workload::Job* job = cluster.add_job(spec);
  cluster.start_all();
  sim.run_until(sim::seconds(240));

  const auto comms = job->comm_times_seconds();
  if (comms.empty()) return 0.0;
  // Goodput during the communication phases (skip the first, slow-started).
  std::vector<double> rates;
  for (std::size_t i = 1; i < comms.size(); ++i) {
    rates.push_back(static_cast<double>(bytes) * 8.0 / comms[i] * 1e-9);
  }
  return analysis::mean(rates);
}

double fit_loglog_slope(const std::vector<double>& ps,
                        const std::vector<double>& ys) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const auto n = static_cast<double>(ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const double x = std::log(ps[i]);
    const double y = std::log(ys[i]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

void loss_response() {
  bench::print_header("(1) throughput vs injected loss probability");

  core::MltcpConfig cfg;
  cfg.tracker.total_bytes = 20'000'000;
  cfg.tracker.comp_time = sim::milliseconds(150);

  const std::vector<double> ps = {0.0001, 0.0003, 0.001, 0.003, 0.01};
  // 2 variants x 5 loss rates = 10 independent lossy runs: one campaign.
  struct LossPoint {
    bool mltcp;
    double p;
  };
  std::vector<LossPoint> points;
  for (const double p : ps) {
    points.push_back(LossPoint{false, p});
    points.push_back(LossPoint{true, p});
  }
  const std::vector<double> goodputs =
      runner::run_campaign<LossPoint, double>(
          points,
          [&cfg](const LossPoint& pt, std::size_t) {
            return lossy_goodput(pt.mltcp
                                     ? core::mltcp_reno_factory(cfg)
                                     : core::reno_factory(),
                                 pt.p);
          },
          bench::campaign_options());
  std::vector<double> reno_tp;
  std::vector<double> mltcp_tp;
  std::printf("loss_p,reno_gbps,mltcp_gbps\n");
  for (std::size_t i = 0; i < ps.size(); ++i) {
    reno_tp.push_back(goodputs[2 * i]);
    mltcp_tp.push_back(goodputs[2 * i + 1]);
    std::printf("%.4f,%.4f,%.4f\n", ps[i], reno_tp.back(), mltcp_tp.back());
  }
  std::printf("log-log slope: reno %.2f (theory -0.5), mltcp %.2f "
              "(paper argues steeper, toward -1)\n",
              fit_loglog_slope(ps, reno_tp), fit_loglog_slope(ps, mltcp_tp));
}

void persistent_share() {
  bench::print_header("(2) persistent MLTCP-Reno vs persistent Reno share");

  sim::Simulator sim;
  net::DumbbellConfig dc;
  dc.hosts_per_side = 2;
  auto d = net::make_dumbbell(sim, dc);

  // Long-lived bulk flows: the MLTCP flow's bytes_ratio saturates at 1, so
  // its additive increase runs at F(1) = 2 vs Reno's 1.
  core::MltcpConfig cfg;
  cfg.tracker.total_bytes = 1'000'000;  // saturates quickly
  cfg.tracker.comp_time = sim::seconds(10);

  tcp::TcpFlow reno_flow(sim, *d.left[0], *d.right[0], 1,
                         std::make_unique<tcp::RenoCC>());
  tcp::TcpFlow mltcp_flow(sim, *d.left[1], *d.right[1], 2,
                          core::make_mltcp_reno(cfg));

  std::int64_t reno_bytes = 0;
  std::int64_t mltcp_bytes = 0;
  std::function<void(sim::SimTime)> refill_reno = [&](sim::SimTime) {
    reno_bytes += 5'000'000;
    reno_flow.send_message(5'000'000, refill_reno);
  };
  std::function<void(sim::SimTime)> refill_mltcp = [&](sim::SimTime) {
    mltcp_bytes += 5'000'000;
    mltcp_flow.send_message(5'000'000, refill_mltcp);
  };
  reno_flow.send_message(5'000'000, refill_reno);
  mltcp_flow.send_message(5'000'000, refill_mltcp);
  sim.run_until(sim::seconds(30));

  const double total =
      static_cast<double>(reno_bytes) + static_cast<double>(mltcp_bytes);
  std::printf("share: mltcp %.2f, reno %.2f (Jain %.3f)\n",
              mltcp_bytes / total, reno_bytes / total,
              analysis::jain_index({static_cast<double>(mltcp_bytes),
                                    static_cast<double>(reno_bytes)}));
  std::printf("MLTCP claims the larger share: %s; Reno starved: %s\n",
              mltcp_bytes > reno_bytes ? "yes" : "NO (unexpected)",
              reno_bytes < 0.1 * total ? "YES (unexpected)" : "no");
}

void coexistence() {
  bench::print_header("(3) MLTCP training job + legacy Reno bulk flow");

  sim::Simulator sim;
  net::DumbbellConfig dc;
  dc.hosts_per_side = 2;
  auto d = net::make_dumbbell(sim, dc);

  // Legacy bulk flow: one long-lived Reno transfer.
  tcp::TcpFlow legacy(sim, *d.left[0], *d.right[0], 1000,
                      std::make_unique<tcp::RenoCC>());
  std::int64_t legacy_done_bytes = 0;
  // Chain 10 MB messages back to back to emulate a persistent flow.
  std::function<void(sim::SimTime)> refill = [&](sim::SimTime) {
    legacy_done_bytes += 10'000'000;
    legacy.send_message(10'000'000, refill);
  };
  legacy.send_message(10'000'000, refill);

  // MLTCP training job on the second host pair.
  const workload::ModelProfile gpt2 = workload::gpt2_profile();
  workload::Cluster cluster(sim);
  workload::JobSpec spec;
  spec.name = "mltcp-job";
  const std::int64_t bytes = workload::comm_bytes(gpt2, 1e9);
  spec.flows = workload::single_flow(d.left[1], d.right[1], bytes);
  spec.compute_time = workload::compute_time(gpt2);
  spec.max_iterations = 20;
  core::MltcpConfig cfg;
  cfg.tracker.total_bytes = bytes;
  cfg.tracker.comp_time = workload::compute_time(gpt2) / 2;
  spec.cc = core::mltcp_reno_factory(cfg);
  workload::Job* job = cluster.add_job(spec);
  cluster.start_all();

  sim.run_until(sim::seconds(40));

  const double horizon = sim::to_seconds(sim.now());
  const double legacy_gbps = legacy_done_bytes * 8.0 / horizon * 1e-9;
  const auto comms = job->comm_times_seconds();
  std::vector<double> rates;
  for (std::size_t i = 1; i < comms.size(); ++i) {
    rates.push_back(bytes * 8.0 / comms[i] * 1e-9);
  }
  const double job_gbps = analysis::mean(rates);
  std::printf("legacy Reno long-term rate: %.3f Gbps (link 1 Gbps)\n",
              legacy_gbps);
  std::printf("MLTCP job rate during its comm phases: %.3f Gbps\n", job_gbps);
  std::printf("legacy starved: %s (paper: MLTCP claims more bandwidth but "
              "never starves legacy flows)\n",
              legacy_gbps < 0.05 ? "YES (unexpected)" : "no");
}

net::QueueFactory bottleneck_queue_for(const CcVariant& v) {
  // ~2 ms of buffer at 1 Gbps (the dumbbell default) / DCTCP-style marking.
  return v.ecn_bottleneck ? net::make_ecn_factory(256 * 1500, 20 * 1500)
                          : net::make_droptail_factory(250'000);
}

struct DisparityOutcome {
  double near_gbps = 0.0;
  double far_gbps = 0.0;
  double jain = 0.0;
};

/// Two persistent same-controller flows into one 1 Gb/s bottleneck, one on
/// a ~60 us path and one on a ~2 ms path (access-link delay disparity the
/// stock dumbbell cannot express, so the topology is hand-built).
DisparityOutcome rtt_disparity_run(const CcVariant& v) {
  sim::Simulator sim;
  net::Topology topo(sim);
  net::Switch* swL = topo.add_switch("swL");
  net::Switch* swR = topo.add_switch("swR");
  topo.connect(*swL, *swR, 1e9, sim::microseconds(20),
               bottleneck_queue_for(v));
  const net::QueueFactory host_q = net::make_droptail_factory(4 * 1024 * 1024);
  net::Host* near_src = topo.add_host("near_src");
  net::Host* far_src = topo.add_host("far_src");
  net::Host* near_dst = topo.add_host("near_dst");
  net::Host* far_dst = topo.add_host("far_dst");
  topo.connect(*near_src, *swL, 4e9, sim::microseconds(5), host_q);
  topo.connect(*far_src, *swL, 4e9, sim::milliseconds(1), host_q);
  topo.connect(*near_dst, *swR, 4e9, sim::microseconds(5), host_q);
  topo.connect(*far_dst, *swR, 4e9, sim::microseconds(5), host_q);
  topo.build_routes();

  tcp::TcpFlow near_flow(sim, *near_src, *near_dst, 1, v.cc());
  tcp::TcpFlow far_flow(sim, *far_src, *far_dst, 2, v.cc());
  std::int64_t near_bytes = 0;
  std::int64_t far_bytes = 0;
  std::function<void(sim::SimTime)> refill_near = [&](sim::SimTime) {
    near_bytes += 5'000'000;
    near_flow.send_message(5'000'000, refill_near);
  };
  std::function<void(sim::SimTime)> refill_far = [&](sim::SimTime) {
    far_bytes += 5'000'000;
    far_flow.send_message(5'000'000, refill_far);
  };
  near_flow.send_message(5'000'000, refill_near);
  far_flow.send_message(5'000'000, refill_far);
  const double horizon = 30.0;
  sim.run_until(sim::from_seconds(horizon));

  DisparityOutcome out;
  out.near_gbps = static_cast<double>(near_bytes) * 8.0 / horizon * 1e-9;
  out.far_gbps = static_cast<double>(far_bytes) * 8.0 / horizon * 1e-9;
  out.jain = analysis::jain_index({static_cast<double>(near_bytes),
                                   static_cast<double>(far_bytes)});
  return out;
}

void rtt_disparity() {
  bench::print_header("(4) RTT-disparity fairness across the CC family");
  // The plain members: the even entries of the (plain, MLTCP) pairs.
  std::vector<CcVariant> family;
  const std::vector<CcVariant> pairs = bench::cc_family(core::MltcpConfig{});
  for (std::size_t i = 0; i < pairs.size(); i += 2) family.push_back(pairs[i]);
  const std::vector<DisparityOutcome> results =
      runner::run_campaign<CcVariant, DisparityOutcome>(
          family,
          [](const CcVariant& v, std::size_t) { return rtt_disparity_run(v); },
          bench::campaign_options());
  std::printf("%-8s %10s %10s %10s %8s\n", "cc", "near_gbps", "far_gbps",
              "far/near", "jain");
  for (std::size_t i = 0; i < family.size(); ++i) {
    const DisparityOutcome& o = results[i];
    std::printf("%-8s %10.3f %10.3f %10.3f %8.3f\n", family[i].name.c_str(),
                o.near_gbps, o.far_gbps,
                o.near_gbps > 0 ? o.far_gbps / o.near_gbps : 0.0, o.jain);
  }
  std::printf("expected shape: per-RTT window growth starves the far flow "
              "(reno/cubic/dctcp/swift);\ngemini's srtt/rtt_ref-scaled "
              "increase narrows the gap (best Jain of the family);\nbbr "
              "OVERSHOOTS and inverts it — BBRv1's documented long-RTT "
              "favoritism (the far\nflow's larger min_rtt buys a larger "
              "BDP and inflight cap at the shared queue).\n");
}

struct IncastOutcome {
  double tail_iter_s = 0.0;
  double legacy_gbps = 0.0;
  int iterations = 0;
};

/// An 8-worker parameter-server job (synchronized incast into one server at
/// every iteration boundary) plus a persistent legacy Reno bulk flow.
IncastOutcome incast_run(const CcVariant& v) {
  sim::Simulator sim;
  net::DumbbellConfig dc;
  dc.hosts_per_side = 9;
  dc.bottleneck_queue = bottleneck_queue_for(v);
  auto d = net::make_dumbbell(sim, dc);

  tcp::TcpFlow legacy(sim, *d.left[8], *d.right[8], 1000,
                      std::make_unique<tcp::RenoCC>());
  std::int64_t legacy_done_bytes = 0;
  std::function<void(sim::SimTime)> refill = [&](sim::SimTime) {
    legacy_done_bytes += 10'000'000;
    legacy.send_message(10'000'000, refill);
  };
  legacy.send_message(10'000'000, refill);

  workload::Cluster cluster(sim);
  workload::JobSpec spec;
  spec.name = "ps-incast";
  const std::int64_t bytes_per_worker = 2'000'000;
  std::vector<net::Host*> workers(d.left.begin(), d.left.begin() + 8);
  spec.flows = workload::parameter_server(workers, d.right[0],
                                          bytes_per_worker);
  spec.compute_time = sim::milliseconds(40);
  spec.max_iterations = 60;
  spec.cc = v.cc;
  workload::Job* job = cluster.add_job(spec);
  cluster.start_all();

  const double horizon = 30.0;
  sim.run_until(sim::from_seconds(horizon));

  IncastOutcome out;
  const auto times = job->iteration_times_seconds();
  out.iterations = static_cast<int>(times.size());
  out.tail_iter_s = analysis::tail_mean(times, 10);
  out.legacy_gbps =
      static_cast<double>(legacy_done_bytes) * 8.0 / horizon * 1e-9;
  return out;
}

void incast_coexistence() {
  bench::print_header(
      "(5) incast coexistence: 8:1 parameter-server job vs legacy Reno");

  core::MltcpConfig cfg;
  cfg.tracker.total_bytes = 2'000'000;
  cfg.tracker.comp_time = sim::milliseconds(20);
  const std::vector<CcVariant> variants = bench::cc_family(cfg);

  const std::vector<IncastOutcome> results =
      runner::run_campaign<CcVariant, IncastOutcome>(
          variants,
          [](const CcVariant& v, std::size_t) { return incast_run(v); },
          bench::campaign_options());
  std::printf("%-14s %12s %8s %12s %s\n", "cc", "tail_iter_s", "iters",
              "legacy_gbps", "legacy_starved");
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const IncastOutcome& o = results[i];
    std::printf("%-14s %12.3f %8d %12.3f %s\n", variants[i].name.c_str(),
                o.tail_iter_s, o.iterations, o.legacy_gbps,
                o.legacy_gbps < 0.02 ? "YES (unexpected)" : "no");
  }
  std::printf("expected shape: the legacy flow keeps a healthy share under "
              "all twelve\nvariants — incast is where starvation would show "
              "first. The MLTCP gain cycle\nneither helps nor hurts the "
              "incast tail materially (a few percent either way:\nthe 8 "
              "synchronized workers are one job, so there is no cross-job "
              "asymmetry for\nF to exploit).\n");
}

}  // namespace

int main() {
  std::printf("Reproduces the §5 fairness discussion of MLTCP "
              "(HotNets'24).\n");
  loss_response();
  persistent_share();
  coexistence();
  rtt_disparity();
  incast_coexistence();
  return 0;
}
