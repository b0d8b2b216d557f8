#include "util/rng.h"

#include <gtest/gtest.h>

#include <vector>

namespace hsr::util {
namespace {

TEST(SplitMix64Test, KnownNonTrivialOutputs) {
  // Distinct inputs map to distinct, well-mixed outputs.
  EXPECT_NE(splitmix64(0), 0u);
  EXPECT_NE(splitmix64(1), splitmix64(2));
  EXPECT_NE(splitmix64(1), splitmix64(0));
}

TEST(HashLabelTest, DistinctLabelsDistinctHashes) {
  EXPECT_NE(hash_label("alpha"), hash_label("beta"));
  EXPECT_NE(hash_label(""), hash_label("a"));
  EXPECT_EQ(hash_label("radio"), hash_label("radio"));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.uniform() != b.uniform()) ++differing;
  }
  EXPECT_GT(differing, 28);
}

TEST(RngTest, ForkIsIndependentOfParentConsumption) {
  // Forking yields the same substream regardless of how much the parent
  // has been used: forks derive from the seed, not the engine state.
  Rng parent1(7);
  Rng parent2(7);
  (void)parent2.uniform();
  (void)parent2.uniform();
  Rng c1 = parent1.fork("channel");
  Rng c2 = parent2.fork("channel");
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(c1.uniform(), c2.uniform());
  }
}

TEST(RngTest, ForksWithDifferentLabelsDiffer) {
  Rng parent(7);
  Rng a = parent.fork("a");
  Rng b = parent.fork("b");
  EXPECT_NE(a.uniform(), b.uniform());
}

TEST(RngTest, IndexedForksDiffer) {
  Rng parent(7);
  Rng f0 = parent.fork("flow", 0);
  Rng f1 = parent.fork("flow", 1);
  EXPECT_NE(f0.uniform(), f1.uniform());
}

TEST(RngTest, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(3.0, 7.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    saw_lo |= v == 1;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliRateMatchesProbability) {
  Rng rng(11);
  const double p = 0.3;
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(p)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.1);
}

TEST(RngTest, NormalMoments) {
  Rng rng(19);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(sq / n - mean * mean, 4.0, 0.3);
}

}  // namespace
}  // namespace hsr::util
