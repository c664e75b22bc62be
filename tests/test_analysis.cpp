#include <gtest/gtest.h>

#include <cmath>

#include "analysis/metrics.hpp"
#include "analysis/shift.hpp"

namespace mltcp::analysis {
namespace {

ShiftParams half_comm() {
  ShiftParams p;
  p.alpha = 0.5;
  p.period = 1.8;
  return p;
}

// ------------------------------------------------------------------ shift

TEST(ShiftEq3, ZeroAtBothEnds) {
  const ShiftParams p = half_comm();
  EXPECT_DOUBLE_EQ(shift_eq3(0.0, p), 0.0);
  EXPECT_NEAR(shift_eq3(p.alpha * p.period, p), 0.0, 1e-12);
}

TEST(ShiftEq3, MatchesClosedFormAtMidpoint) {
  const ShiftParams p = half_comm();
  const double at = p.alpha * p.period;  // 0.9
  const double d = at / 2.0;
  const double expected =
      p.slope * d * (at - d) / (at * p.intercept + d * p.slope);
  EXPECT_DOUBLE_EQ(shift_eq3(d, p), expected);
  EXPECT_GT(expected, 0.0);
}

TEST(ShiftEq3, PositiveOnOpenInterval) {
  const ShiftParams p = half_comm();
  for (double f = 0.05; f < 1.0; f += 0.05) {
    EXPECT_GT(shift_eq3(f * p.alpha * p.period, p), 0.0) << f;
  }
}

TEST(ShiftExtended, AntisymmetricAroundPeriod) {
  const ShiftParams p = half_comm();
  for (double d = 0.1; d < 0.9; d += 0.1) {
    EXPECT_NEAR(shift(p.period - d, p), -shift(d, p), 1e-12) << d;
  }
}

TEST(ShiftExtended, ZeroInInterleavedBand) {
  ShiftParams p;
  p.alpha = 0.25;  // band is [0.25T, 0.75T]
  p.period = 2.0;
  EXPECT_DOUBLE_EQ(shift(0.6, p), 0.0);
  EXPECT_DOUBLE_EQ(shift(1.0, p), 0.0);
  EXPECT_DOUBLE_EQ(shift(1.4, p), 0.0);
  EXPECT_GT(shift(0.2, p), 0.0);
  EXPECT_LT(shift(1.9, p), 0.0);
}

TEST(ShiftExtended, ReducesModuloPeriod) {
  const ShiftParams p = half_comm();
  EXPECT_DOUBLE_EQ(shift(0.3, p), shift(0.3 + p.period, p));
  EXPECT_DOUBLE_EQ(shift(-0.3, p), shift(p.period - 0.3, p));
}

// ------------------------------------------------------------------- loss

TEST(Loss, ZeroAtOrigin) {
  EXPECT_DOUBLE_EQ(loss(0.0, half_comm()), 0.0);
}

TEST(Loss, StrictlyDecreasingTowardMinimum) {
  const ShiftParams p = half_comm();
  double prev = loss(0.0, p);
  for (double d = 0.09; d <= 0.9; d += 0.09) {
    const double cur = loss(d, p);
    EXPECT_LT(cur, prev) << d;
    prev = cur;
  }
}

TEST(Loss, MinimumAtHalfPeriodForHalfComm) {
  // Figure 5c: for a = 1/2 the unique global minimum is at D = T/2.
  const ShiftParams p = half_comm();
  double best = 1e100;
  double argmin = -1.0;
  for (int i = 0; i <= 360; ++i) {
    const double d = p.period * i / 360.0;
    const double l = loss(d, p);
    if (l < best) {
      best = l;
      argmin = d;
    }
  }
  EXPECT_NEAR(argmin, p.period / 2.0, p.period / 180.0);
}

TEST(Loss, SymmetricEndpoints) {
  // Loss over the full circle integrates the antisymmetric shift to ~0.
  const ShiftParams p = half_comm();
  EXPECT_NEAR(loss(p.period, p), 0.0, 1e-6);
}

TEST(Loss, FlatOnInterleavedBand) {
  ShiftParams p;
  p.alpha = 0.2;
  p.period = 1.0;
  const double l1 = loss(0.3, p);
  const double l2 = loss(0.5, p);
  const double l3 = loss(0.7, p);
  // Tolerance covers Simpson quadrature noise at the band edges.
  EXPECT_NEAR(l1, l2, 1e-6);
  EXPECT_NEAR(l2, l3, 1e-6);
}

// ---------------------------------------------------------------- descent

class DescentFromAnywhere : public ::testing::TestWithParam<double> {};

TEST_P(DescentFromAnywhere, ConvergesToInterleaved) {
  const ShiftParams p = half_comm();
  const auto res = descend(GetParam() * p.period, p, 500, 1e-5);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.trajectory.back(), p.period / 2.0, 0.02);
}

INSTANTIATE_TEST_SUITE_P(StartingOffsets, DescentFromAnywhere,
                         ::testing::Values(0.01, 0.1, 0.25, 0.4, 0.49, 0.51,
                                           0.75, 0.9, 0.99));

TEST(Descent, ConvergesWithinTensOfIterations) {
  // The paper observes interleaving within ~20 iterations.
  const ShiftParams p = half_comm();
  const auto res = descend(0.05 * p.period, p, 100, 1e-3);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 25);
}

TEST(Descent, AlreadyConvergedStaysPut) {
  const ShiftParams p = half_comm();
  const auto res = descend(p.period / 2.0, p, 10, 1e-6);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

TEST(Descent, ErrorBoundFormula) {
  EXPECT_DOUBLE_EQ(predicted_error_stddev(0.01, 1.75, 0.25),
                   2.0 * 0.01 * (1.0 + 0.25 / 1.75));
  EXPECT_DOUBLE_EQ(predicted_error_stddev(0.0, 1.75, 0.25), 0.0);
  // Larger intercept/slope ratio -> larger steady-state error.
  EXPECT_GT(predicted_error_stddev(0.01, 1.0, 1.0),
            predicted_error_stddev(0.01, 2.0, 0.5));
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(stddev({5}), 0.0);
}

TEST(Metrics, PercentileInterpolates) {
  std::vector<double> xs = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 30);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 20);
  EXPECT_DOUBLE_EQ(percentile(xs, 12.5), 15);
}

TEST(Metrics, JainIndexBounds) {
  EXPECT_DOUBLE_EQ(jain_index({5, 5, 5}), 1.0);
  EXPECT_NEAR(jain_index({1, 0, 0, 0}), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
}

TEST(Metrics, CdfIsMonotone) {
  const auto cdf = make_cdf({3, 1, 2});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1);
  EXPECT_NEAR(cdf[0].cumulative_probability, 1.0 / 3, 1e-12);
  EXPECT_DOUBLE_EQ(cdf[2].value, 3);
  EXPECT_DOUBLE_EQ(cdf[2].cumulative_probability, 1.0);
}

TEST(Metrics, TailMean) {
  EXPECT_DOUBLE_EQ(tail_mean({1, 2, 3, 4}, 2), 3.5);
  EXPECT_DOUBLE_EQ(tail_mean({1, 2}, 10), 1.5);
  EXPECT_DOUBLE_EQ(tail_mean({}, 3), 0.0);
}

TEST(Metrics, IntervalOverlap) {
  using P = std::pair<sim::SimTime, sim::SimTime>;
  const std::vector<P> disjoint = {{0, sim::seconds(1)},
                                   {sim::seconds(2), sim::seconds(3)}};
  EXPECT_DOUBLE_EQ(interval_overlap_seconds(disjoint, 0, sim::seconds(10)),
                   0.0);

  const std::vector<P> overlapping = {{0, sim::seconds(2)},
                                      {sim::seconds(1), sim::seconds(3)}};
  EXPECT_NEAR(interval_overlap_seconds(overlapping, 0, sim::seconds(10)),
              1.0, 1e-9);
}

TEST(Metrics, IntervalOverlapWindowClips) {
  using P = std::pair<sim::SimTime, sim::SimTime>;
  const std::vector<P> overlapping = {{0, sim::seconds(4)},
                                      {0, sim::seconds(4)}};
  EXPECT_NEAR(interval_overlap_seconds(overlapping, sim::seconds(1),
                                       sim::seconds(2)),
              1.0, 1e-9);
}

}  // namespace
}  // namespace mltcp::analysis
