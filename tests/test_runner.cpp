// Tests for the campaign runner: task pool execution guarantees,
// spec-order result aggregation, deterministic (byte-identical) CSV/JSON
// sinks under any thread count, and the env-var plumbing. The end-to-end
// test runs a 32-spec campaign of real packet-level simulations serially
// and in parallel and asserts the serialized outputs are byte-identical —
// the property every refactored bench relies on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/topology.hpp"
#include "runner/campaign.hpp"
#include "runner/sinks.hpp"
#include "runner/thread_pool.hpp"
#include "sim/simulator.hpp"
#include "tcp/flow.hpp"
#include "tcp/reno.hpp"

namespace mltcp::runner {
namespace {

// ---------------------------------------------------------------- TaskPool

TEST(TaskPool, RunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    constexpr std::size_t kCount = 100;
    std::vector<std::atomic<int>> hits(kCount);
    TaskPool pool(threads);
    pool.run(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(TaskPool, OneThreadRunsInlineInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  TaskPool pool(1);
  pool.run(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(TaskPool, FewerTasksThanThreads) {
  std::vector<std::atomic<int>> hits(3);
  TaskPool pool(8);
  pool.run(3, [&](std::size_t i) { hits[i].fetch_add(1); });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
  EXPECT_EQ(hits[2].load(), 1);
}

TEST(TaskPool, ZeroTasksIsANoop) {
  TaskPool pool(4);
  pool.run(0, [](std::size_t) { FAIL() << "no task should run"; });
}

TEST(TaskPool, NonPositiveThreadCountPicksHardwareConcurrency) {
  TaskPool pool(0);
  EXPECT_GE(pool.thread_count(), 1);
}

TEST(TaskPool, ExceptionPropagatesAndOtherTasksStillRun) {
  for (const int threads : {1, 4}) {
    constexpr std::size_t kCount = 20;
    std::vector<std::atomic<int>> hits(kCount);
    TaskPool pool(threads);
    EXPECT_THROW(
        pool.run(kCount,
                 [&](std::size_t i) {
                   hits[i].fetch_add(1);
                   if (i == 5) throw std::runtime_error("task 5 failed");
                 }),
        std::runtime_error);
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

// ------------------------------------------------------------ run_campaign

TEST(Campaign, ResultsComeBackInSpecOrder) {
  std::vector<int> specs;
  for (int i = 0; i < 64; ++i) specs.push_back(i);
  CampaignOptions opts;
  opts.threads = 4;
  const std::vector<long> results = run_campaign<int, long>(
      specs,
      [](const int& spec, std::size_t i) {
        EXPECT_EQ(static_cast<std::size_t>(spec), i);
        return static_cast<long>(spec) * spec;
      },
      opts);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<long>(i) * static_cast<long>(i));
  }
}

TEST(Campaign, OptionsFromEnvReadsMltcpThreads) {
  ::setenv("MLTCP_THREADS", "3", 1);
  EXPECT_EQ(options_from_env().threads, 3);
  ::setenv("MLTCP_THREADS", "0", 1);
  EXPECT_EQ(options_from_env().threads, 0);
  // Garbage fails loudly instead of reading as "all cores".
  for (const std::string garbage : {"abc", "-1", "4x", ""}) {
    ::setenv("MLTCP_THREADS", garbage.c_str(), 1);
    EXPECT_EXIT(options_from_env(), ::testing::ExitedWithCode(2),
                "MLTCP_THREADS wants an integer >= 0, got '" + garbage + "'");
  }
  ::unsetenv("MLTCP_THREADS");
  EXPECT_EQ(options_from_env().threads, 0);
}

TEST(Report, AddfAccumulatesFormattedText) {
  Report rep;
  EXPECT_TRUE(rep.empty());
  rep.addf("%s=%d", "jobs", 4);
  rep.addf(" (%.2f)", 0.5);
  rep.add("\n");
  EXPECT_EQ(rep.text(), "jobs=4 (0.50)\n");
}

// ------------------------------------------------------------------ sinks

TEST(CsvSink, OutOfOrderAppendsSerializeInRunOrder) {
  CsvSink sink({"run", "value"});
  sink.append(2, std::vector<std::string>{"2", "c"});
  sink.append(0, std::vector<std::string>{"0", "a"});
  sink.append(1, std::vector<std::string>{"1", "b"});
  sink.append(0, std::vector<std::string>{"0", "a2"});  // same-run order kept
  EXPECT_EQ(sink.row_count(), 4u);
  EXPECT_EQ(sink.serialize(), "run,value\n0,a\n0,a2\n1,b\n2,c\n");
}

TEST(CsvSink, DoubleRowsUseCsvWriterFormatting) {
  CsvSink sink({"x"});
  sink.append(0, std::vector<double>{0.25});
  sink.append(1, std::vector<double>{3.0});
  sink.append(2, std::vector<double>{1e-7});
  EXPECT_EQ(sink.serialize(), "x\n0.25\n3\n1e-07\n");  // %.9g, like CsvWriter
}

// ------------------------------------- parallel == serial, byte for byte

/// One self-contained packet-level run: a Reno transfer of a spec-dependent
/// size over its own dumbbell. Small enough that 32 of them are fast, real
/// enough that completion times exercise the whole stack.
double tiny_sim_completion_seconds(std::size_t index) {
  sim::Simulator sim;
  net::DumbbellConfig dc;
  dc.hosts_per_side = 1;
  auto d = net::make_dumbbell(sim, dc);
  tcp::TcpFlow flow(sim, *d.left[0], *d.right[0], 1,
                    std::make_unique<tcp::RenoCC>());
  sim::SimTime done = -1;
  flow.send_message(50'000 + 10'000 * static_cast<std::int64_t>(index),
                    [&](sim::SimTime t) { done = t; });
  sim.run();
  return sim::to_seconds(done);
}

std::string run_tiny_campaign(std::size_t runs, int threads) {
  CsvSink csv({"run", "completion_s"});
  std::vector<std::size_t> specs(runs);
  for (std::size_t i = 0; i < runs; ++i) specs[i] = i;
  CampaignOptions opts;
  opts.threads = threads;
  run_campaign<std::size_t, double>(
      specs,
      [&](const std::size_t& spec, std::size_t i) {
        const double s = tiny_sim_completion_seconds(spec);
        csv.append(i, std::vector<double>{static_cast<double>(i), s});
        return s;
      },
      opts);
  return csv.serialize();
}

TEST(Campaign, ParallelSinkOutputByteIdenticalToSerial) {
  constexpr std::size_t kRuns = 32;
  const std::string serial = run_tiny_campaign(kRuns, 1);
  EXPECT_NE(serial.find("\n31,"), std::string::npos);
  for (const int threads : {2, 4}) {
    EXPECT_EQ(run_tiny_campaign(kRuns, threads), serial)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace mltcp::runner
