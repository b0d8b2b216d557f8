#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace hsr::util {
namespace {

TEST(RunningStatsTest, EmptyIsSafe) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, MeanMinMax) {
  RunningStats s;
  for (double x : {3.0, 1.0, 4.0, 1.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.8);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 14.0);
}

TEST(RunningStatsTest, VarianceMatchesDirectFormula) {
  RunningStats s;
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) s.add(x);
  // Sample variance with n-1 denominator: 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStatsTest, SingleSampleVarianceZero) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(EmpiricalCdfTest, EmptyQueries) {
  EmpiricalCdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.cdf(1.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 0.0);
}

TEST(EmpiricalCdfTest, CdfValues) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.cdf(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.cdf(100.0), 1.0);
}

TEST(EmpiricalCdfTest, QuantileInterpolates) {
  EmpiricalCdf cdf({0.0, 10.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(cdf.median(), 5.0);
}

TEST(EmpiricalCdfTest, AddThenQuery) {
  EmpiricalCdf cdf;
  for (double x : {5.0, 1.0, 3.0}) cdf.add(x);
  EXPECT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 3.0);
}

TEST(EmpiricalCdfTest, CurveIsMonotone) {
  EmpiricalCdf cdf;
  for (int i = 0; i < 500; ++i) cdf.add(std::fmod(i * 37.0, 101.0));
  auto curve = cdf.curve(50);
  ASSERT_FALSE(curve.empty());
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].first, curve[i].first);
    EXPECT_LE(curve[i - 1].second, curve[i].second);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(CorrelationTest, PerfectPositiveAndNegative) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson_correlation(xs, ys), 1.0, 1e-12);
  std::vector<double> zs = {10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson_correlation(xs, zs), -1.0, 1e-12);
}

TEST(CorrelationTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(pearson_correlation({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(pearson_correlation({1.0}, {2.0}), 0.0);
  EXPECT_DOUBLE_EQ(pearson_correlation({1, 2}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(pearson_correlation({5, 5, 5}, {1, 2, 3}), 0.0);  // zero variance
}

TEST(LinearFitTest, RecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 0.5 * i);
  }
  const auto [a, b] = linear_fit(xs, ys);
  EXPECT_NEAR(a, 3.0, 1e-9);
  EXPECT_NEAR(b, 0.5, 1e-9);
}

TEST(LinearFitTest, DegenerateReturnsMean) {
  const auto [a, b] = linear_fit({2, 2, 2}, {1, 5, 9});
  EXPECT_DOUBLE_EQ(a, 5.0);
  EXPECT_DOUBLE_EQ(b, 0.0);
}

TEST(MeanOfTest, Basics) {
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(mean_of({4.0}), 4.0);
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
}

}  // namespace
}  // namespace hsr::util
