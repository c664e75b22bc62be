// Telemetry subsystem: tracer gating and near-zero disabled cost contract,
// flight-recorder ring semantics, sink output formats, metric registry, and
// the component stat collectors.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "net/queue.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "tcp/flow.hpp"
#include "tcp/reno.hpp"
#include "telemetry/collect.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/tracer.hpp"
#include "workload/cluster.hpp"

namespace mltcp {
namespace {

using telemetry::Category;
using telemetry::EventType;
using telemetry::TraceEvent;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string tmp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

// ------------------------------------------------------------------ Tracer

TEST(Tracer, GatesOnAttachedTracerAndCategoryMask) {
  sim::Simulator sim;
  // No tracer attached: the gate is null for every category.
  EXPECT_EQ(telemetry::tracer_for(sim, Category::kTcp), nullptr);

  telemetry::Tracer tracer(
      telemetry::Tracer::Config{Category::kTcp | Category::kJob, 0});
  sim.set_tracer(&tracer);
  EXPECT_EQ(telemetry::tracer_for(sim, Category::kTcp), &tracer);
  EXPECT_EQ(telemetry::tracer_for(sim, Category::kJob), &tracer);
  EXPECT_EQ(telemetry::tracer_for(sim, Category::kQueue), nullptr);
  EXPECT_EQ(telemetry::tracer_for(sim, Category::kTcpAck), nullptr);

  tracer.set_categories(telemetry::kAllCategories);
  EXPECT_EQ(telemetry::tracer_for(sim, Category::kTcpAck), &tracer);
}

TEST(Tracer, ConvenienceEmittersFillEvents) {
  telemetry::Tracer tracer(
      telemetry::Tracer::Config{telemetry::kAllCategories, 0});
  telemetry::InMemorySink sink;
  tracer.add_sink(&sink);

  tracer.instant(Category::kTcp, "rto", sim::milliseconds(3), 7, "rto_us",
                 200.0, "inflight", 12.0);
  tracer.counter(Category::kFlow, "cwnd", sim::milliseconds(4), 7, 33.5);
  tracer.begin(Category::kJob, "comm", sim::milliseconds(5),
               telemetry::track_job(0));
  tracer.end(Category::kJob, "comm", sim::milliseconds(6),
             telemetry::track_job(0));

  ASSERT_EQ(sink.events().size(), 4u);
  EXPECT_EQ(tracer.emitted(), 4u);

  const TraceEvent& rto = sink.events()[0];
  EXPECT_EQ(rto.type, EventType::kInstant);
  EXPECT_STREQ(rto.name, "rto");
  EXPECT_EQ(rto.when, sim::milliseconds(3));
  EXPECT_EQ(rto.track, 7u);
  EXPECT_STREQ(rto.v0_name, "rto_us");
  EXPECT_DOUBLE_EQ(rto.v0, 200.0);
  EXPECT_STREQ(rto.v1_name, "inflight");
  EXPECT_DOUBLE_EQ(rto.v1, 12.0);

  EXPECT_EQ(sink.events()[1].type, EventType::kCounter);
  EXPECT_DOUBLE_EQ(sink.events()[1].v0, 33.5);
  EXPECT_EQ(sink.events()[2].type, EventType::kBegin);
  EXPECT_EQ(sink.events()[3].type, EventType::kEnd);
  EXPECT_EQ(sink.count("comm"), 2u);
}

TEST(Tracer, FlightRecorderKeepsLastNOldestFirst) {
  telemetry::Tracer tracer(
      telemetry::Tracer::Config{telemetry::kAllCategories, 4});
  ASSERT_TRUE(tracer.ring_enabled());

  static const char* kNames[] = {"e0", "e1", "e2", "e3", "e4", "e5"};
  for (int i = 0; i < 6; ++i) {
    tracer.instant(Category::kCustom, kNames[i], sim::milliseconds(i), 0);
  }

  EXPECT_EQ(tracer.emitted(), 6u);
  EXPECT_EQ(tracer.ring_overwritten(), 2u);
  const auto snap = tracer.ring_snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_STREQ(snap[0].name, "e2");
  EXPECT_STREQ(snap[3].name, "e5");

  // dump_ring replays the same events into a sink.
  telemetry::InMemorySink dump;
  tracer.dump_ring(dump);
  ASSERT_EQ(dump.events().size(), 4u);
  EXPECT_STREQ(dump.events()[0].name, "e2");
}

TEST(Tracer, RingWithoutSinksStillRecords) {
  telemetry::Tracer tracer(
      telemetry::Tracer::Config{telemetry::kAllCategories, 8});
  tracer.instant(Category::kCustom, "lonely", 0, 0);
  EXPECT_EQ(tracer.ring_snapshot().size(), 1u);
}

// ------------------------------------------------------------------- sinks

TEST(TraceSinks, CsvSinkWritesOneRowPerEvent) {
  const std::string path = tmp_path("trace_events.csv");
  {
    telemetry::Tracer tracer(
        telemetry::Tracer::Config{telemetry::kAllCategories, 0});
    telemetry::CsvTraceSink sink(path);
    tracer.add_sink(&sink);
    tracer.counter(Category::kFlow, "cwnd", sim::seconds(1), 3, 20.0);
    tracer.instant(Category::kTcp, "rto", sim::seconds(2), 3, "rto_us",
                   400.0);
    sink.finish();
  }
  const std::string text = slurp(path);
  EXPECT_NE(text.find("time_s,category,type,name,track"), std::string::npos);
  EXPECT_NE(text.find("1.000000000,flow,counter,cwnd,3,value,20"),
            std::string::npos);
  EXPECT_NE(text.find("2.000000000,tcp,instant,rto,3,rto_us,400"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceSinks, ChromeSinkEmitsLoadableTraceJson) {
  const std::string path = tmp_path("trace_events.json");
  {
    telemetry::Tracer tracer(
        telemetry::Tracer::Config{telemetry::kAllCategories, 0});
    telemetry::ChromeTraceSink sink(path);
    tracer.add_sink(&sink);
    tracer.counter(Category::kFlow, "cwnd", sim::microseconds(1500), 3, 20.0);
    tracer.begin(Category::kJob, "comm", sim::seconds(1),
                 telemetry::track_job(0));
    tracer.end(Category::kJob, "comm", sim::seconds(2),
               telemetry::track_job(0));
    tracer.instant(Category::kTcp, "rto", sim::seconds(3), 3);
    sink.finish();
    sink.finish();  // idempotent
    EXPECT_EQ(sink.events_written(), 4u);
  }
  const std::string text = slurp(path);
  EXPECT_EQ(text.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  EXPECT_EQ(text.substr(text.size() - 4), "\n]}\n");
  // Track metadata names the process; ts is microseconds.
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  EXPECT_NE(text.find("\"flow 3\""), std::string::npos);
  EXPECT_NE(text.find("\"job 0\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"ts\":1500.000"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceSinks, TrackNamesFollowNamespaces) {
  EXPECT_EQ(telemetry::track_name(telemetry::track_flow(5)), "flow 5");
  EXPECT_EQ(telemetry::track_name(telemetry::track_job(2)), "job 2");
  EXPECT_EQ(telemetry::track_name(telemetry::track_link(1)), "link 1");
  EXPECT_EQ(telemetry::track_name(telemetry::track_switch(3)), "switch 3");
  EXPECT_EQ(telemetry::track_name(telemetry::track_scenario()), "scenario");
  EXPECT_EQ(telemetry::track_name(telemetry::track_traffic()), "traffic");
  EXPECT_EQ(telemetry::track_name(telemetry::track_flowsim()), "flowsim");
}

// ----------------------------------------------------------------- metrics

TEST(MetricRegistry, CountersGaugesAndHistograms) {
  telemetry::MetricRegistry reg;
  reg.counter("tcp/retransmissions").add(3);
  reg.counter("tcp/retransmissions").add();
  reg.gauge("tcp/cwnd").set(17.5);
  auto& h = reg.histogram("job/iter_time_s");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));

  EXPECT_EQ(reg.counter("tcp/retransmissions").value(), 4);
  EXPECT_DOUBLE_EQ(reg.gauge("tcp/cwnd").value(), 17.5);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
  EXPECT_TRUE(reg.contains("tcp/cwnd"));
  EXPECT_FALSE(reg.contains("tcp/nope"));
}

TEST(MetricRegistry, KindMismatchThrows) {
  telemetry::MetricRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x"), std::logic_error);
}

TEST(MetricRegistry, SnapshotIsSortedAndExpandsHistograms) {
  telemetry::MetricRegistry reg;
  reg.gauge("b").set(2.0);
  reg.counter("a").add(1);
  reg.histogram("c").observe(7.0);

  // Metrics are ordered by name; a histogram expands in place with a fixed
  // suffix order (count, min, mean, p50, p99, max).
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 8u);  // a, b, and six c.* expansions
  EXPECT_EQ(snap[0].name, "a");
  EXPECT_EQ(snap[1].name, "b");
  EXPECT_EQ(snap[2].name, "c.count");
  EXPECT_DOUBLE_EQ(snap[2].value, 1.0);
  EXPECT_EQ(snap[7].name, "c.max");
  EXPECT_DOUBLE_EQ(snap[7].value, 7.0);

  const std::string table = reg.table();
  EXPECT_NE(table.find("c.p99"), std::string::npos);

  const std::string path = tmp_path("registry.csv");
  reg.write_csv(path);
  const std::string text = slurp(path);
  EXPECT_EQ(text.find("metric,value"), 0u);
  EXPECT_NE(text.find("c.count,1"), std::string::npos);
  std::remove(path.c_str());
}

// -------------------------------------------------------------- collectors

TEST(Collectors, QueueStatsLandInRegistry) {
  net::FifoQueue q(3000);
  for (int i = 0; i < 4; ++i) {
    net::Packet pkt;
    pkt.size_bytes = 1500;
    q.enqueue(pkt, 0);  // two fit, two drop
  }
  telemetry::MetricRegistry reg;
  telemetry::collect_queue(reg, "net/bottleneck", q);
  EXPECT_EQ(reg.counter("net/bottleneck/enqueued").value(), 2);
  EXPECT_EQ(reg.counter("net/bottleneck/drops").value(), 2);
  EXPECT_DOUBLE_EQ(reg.gauge("net/bottleneck/max_backlog_bytes").value(),
                   3000.0);
}

TEST(Collectors, ClusterRollupCoversJobsAndFlows) {
  sim::Simulator sim;
  net::DumbbellConfig dcfg;
  dcfg.hosts_per_side = 2;
  net::Dumbbell d = net::make_dumbbell(sim, dcfg);
  workload::Cluster cluster(sim);

  workload::JobSpec spec;
  spec.name = "probe";
  spec.flows = workload::single_flow(d.left[0], d.right[0], 1'000'000);
  spec.compute_time = sim::milliseconds(10);
  spec.max_iterations = 3;
  spec.cc = [] { return std::make_unique<tcp::RenoCC>(); };
  workload::Job* job = cluster.add_job(spec);

  cluster.start_all();
  sim.run_until(sim::seconds(30));
  ASSERT_EQ(job->completed_iterations(), 3);

  telemetry::MetricRegistry reg;
  telemetry::collect_cluster(reg, "cluster", cluster);
  telemetry::collect_switch(reg, "net/sw0", *d.left_switch);
  telemetry::collect_link(reg, "net/bottleneck", *d.bottleneck);
  telemetry::collect_host(reg, "net/right0", *d.right[0]);

  EXPECT_EQ(reg.counter("cluster/job/probe/iterations").value(), 3);
  const auto flow_id = cluster.flows_of(0).front()->id();
  const std::string flow_prefix =
      "cluster/flow/" + std::to_string(flow_id);
  EXPECT_GT(reg.counter(flow_prefix + "/data_packets_sent").value(), 0);
  EXPECT_EQ(reg.counter(flow_prefix + "/messages_completed").value(), 3);
  EXPECT_GT(reg.counter("net/sw0/forwarded").value(), 0);
  EXPECT_EQ(reg.counter("net/sw0/routeless_drops").value(), 0);
  EXPECT_GT(reg.counter("net/bottleneck/bytes_tx").value(), 1'000'000);
  EXPECT_GT(reg.counter("net/right0/delivered").value(), 0);
}

// ------------------------------------------------- end-to-end instrumentation

TEST(Instrumentation, PacketRunEmitsJobFlowAndQueueEvents) {
  sim::Simulator sim;
  net::DumbbellConfig dcfg;
  dcfg.hosts_per_side = 2;
  // A tiny buffer guarantees drops, so kQueue events must appear.
  dcfg.bottleneck_queue = [] {
    return std::make_unique<net::FifoQueue>(8 * 1500);
  };
  net::Dumbbell d = net::make_dumbbell(sim, dcfg);

  telemetry::Tracer tracer(telemetry::Tracer::Config{
      Category::kJob | Category::kQueue | Category::kTcp, 0});
  telemetry::InMemorySink sink;
  tracer.add_sink(&sink);
  sim.set_tracer(&tracer);

  workload::Cluster cluster(sim);
  workload::JobSpec spec;
  spec.name = "j0";
  spec.flows = workload::single_flow(d.left[0], d.right[0], 2'000'000);
  spec.compute_time = sim::milliseconds(5);
  spec.max_iterations = 2;
  spec.cc = [] { return std::make_unique<tcp::RenoCC>(); };
  workload::Job* job = cluster.add_job(spec);

  cluster.start_all();
  sim.run_until(sim::seconds(30));
  ASSERT_EQ(job->completed_iterations(), 2);

  // Phase slices pair up and iterations are marked.
  EXPECT_EQ(sink.count("comm"), 4u);     // 2 begins + 2 ends
  EXPECT_EQ(sink.count("compute"), 4u);
  EXPECT_EQ(sink.count("iteration"), 2u);
  // The shallow buffer forced drops and loss recovery.
  EXPECT_GT(sink.count("drop"), 0u);
  EXPECT_GT(sink.count("fast_retransmit") + sink.count("rto"), 0u);
  // Job events share the job's track.
  const auto comm = sink.named("comm");
  EXPECT_EQ(comm.front().track, job->trace_track());
}

TEST(Instrumentation, DisabledCategoriesEmitNothing) {
  sim::Simulator sim;
  net::DumbbellConfig dcfg;
  dcfg.hosts_per_side = 2;
  net::Dumbbell d = net::make_dumbbell(sim, dcfg);

  telemetry::Tracer tracer;  // mask = 0: attached but everything disabled
  telemetry::InMemorySink sink;
  tracer.add_sink(&sink);
  sim.set_tracer(&tracer);

  tcp::TcpFlow flow(sim, *d.left[0], *d.right[0], 1,
                    std::make_unique<tcp::RenoCC>());
  sim::SimTime done = -1;
  flow.send_message(1'000'000, [&](sim::SimTime t) { done = t; });
  sim.run_until(sim::seconds(10));
  ASSERT_GT(done, 0);
  EXPECT_EQ(tracer.emitted(), 0u);
  EXPECT_TRUE(sink.events().empty());
}

}  // namespace
}  // namespace mltcp
