#include "net/channel.h"

#include <gtest/gtest.h>

#include <memory>

namespace hsr::net {
namespace {

Packet make_packet() {
  Packet p;
  p.id = allocate_packet_id();
  p.size_bytes = 1400;
  return p;
}

TEST(PerfectChannelTest, NeverDropsNeverDelays) {
  PerfectChannel ch;
  for (int i = 0; i < 100; ++i) {
    const ChannelVerdict v = ch.decide(make_packet(), TimePoint::from_seconds(i));
    EXPECT_FALSE(v.dropped);
    EXPECT_EQ(v.extra_delay, Duration::zero());
    EXPECT_EQ(v.duplicate_copies, 0u);
  }
}

TEST(BernoulliChannelTest, ZeroAndOne) {
  BernoulliChannel never(0.0, util::Rng(1));
  BernoulliChannel always(1.0, util::Rng(1));
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(never.decide(make_packet(), TimePoint::zero()).dropped);
    EXPECT_TRUE(always.decide(make_packet(), TimePoint::zero()).dropped);
  }
}

TEST(BernoulliChannelTest, DropsCarryBernoulliCause) {
  BernoulliChannel always(1.0, util::Rng(1));
  const ChannelVerdict v = always.decide(make_packet(), TimePoint::zero());
  ASSERT_TRUE(v.dropped);
  EXPECT_EQ(v.cause, DropCause::bernoulli());
  EXPECT_TRUE(v.cause.is_channel());
  EXPECT_FALSE(v.cause.is_queue());
  EXPECT_FALSE(v.cause.is_scripted());
}

TEST(BernoulliChannelTest, LossRateMatchesProbability) {
  const double p = 0.07;
  BernoulliChannel ch(p, util::Rng(42));
  int drops = 0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    if (ch.decide(make_packet(), TimePoint::zero()).dropped) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, p, 0.01);
}

TEST(BernoulliChannelDeathTest, RejectsOutOfRangeProbability) {
  EXPECT_DEATH(BernoulliChannel(-0.1, util::Rng(1)), "range");
  EXPECT_DEATH(BernoulliChannel(1.1, util::Rng(1)), "range");
}

TEST(GilbertElliottChannelTest, StationaryLossRateFormula) {
  GilbertElliottChannel::Config cfg;
  cfg.loss_good = 0.01;
  cfg.loss_bad = 0.5;
  cfg.mean_good_s = 9.0;
  cfg.mean_bad_s = 1.0;
  GilbertElliottChannel ch(cfg, util::Rng(1));
  EXPECT_NEAR(ch.stationary_loss_rate(), 0.9 * 0.01 + 0.1 * 0.5, 1e-12);
}

TEST(GilbertElliottChannelTest, EmpiricalRateNearStationary) {
  GilbertElliottChannel::Config cfg;
  cfg.loss_good = 0.0;
  cfg.loss_bad = 1.0;
  cfg.mean_good_s = 2.0;
  cfg.mean_bad_s = 0.5;
  GilbertElliottChannel ch(cfg, util::Rng(7));
  int drops = 0;
  const int n = 200000;  // ~80 good/bad cycles: keeps the sample error small
  for (int i = 0; i < n; ++i) {
    // One packet per millisecond over 50 seconds of channel evolution.
    if (ch.decide(make_packet(), TimePoint::from_seconds(i * 0.001)).dropped) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, ch.stationary_loss_rate(), 0.06);
}

TEST(GilbertElliottChannelTest, LossesAreBursty) {
  // With loss_bad = 1 and loss_good = 0, consecutive drops cluster: the
  // conditional drop rate after a drop should far exceed the marginal rate.
  GilbertElliottChannel::Config cfg;
  cfg.loss_good = 0.0;
  cfg.loss_bad = 1.0;
  cfg.mean_good_s = 5.0;
  cfg.mean_bad_s = 0.5;
  GilbertElliottChannel ch(cfg, util::Rng(3));
  int drops = 0, pairs = 0, drop_then_drop = 0;
  bool prev = false;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const bool d = ch.decide(make_packet(), TimePoint::from_seconds(i * 0.001)).dropped;
    if (d) ++drops;
    if (prev) {
      ++pairs;
      if (d) ++drop_then_drop;
    }
    prev = d;
  }
  ASSERT_GT(drops, 100);
  ASSERT_GT(pairs, 100);
  const double marginal = static_cast<double>(drops) / n;
  const double conditional = static_cast<double>(drop_then_drop) / pairs;
  EXPECT_GT(conditional, 5.0 * marginal);
}

TEST(GilbertElliottChannelTest, InBadStateIsConsistentWithDrops) {
  GilbertElliottChannel::Config cfg;
  cfg.loss_good = 0.0;
  cfg.loss_bad = 1.0;
  cfg.mean_good_s = 1.0;
  cfg.mean_bad_s = 1.0;
  GilbertElliottChannel ch(cfg, util::Rng(9));
  for (int i = 0; i < 5000; ++i) {
    const TimePoint t = TimePoint::from_seconds(i * 0.01);
    const bool bad = ch.in_bad_state(t);
    const ChannelVerdict v = ch.decide(make_packet(), t);
    if (!bad) {
      EXPECT_FALSE(v.dropped);
    }
  }
}

TEST(GilbertElliottChannelTest, DropsAttributeTheStateTheyWereDrawnIn) {
  // loss_bad = 1, loss_good = 0: every drop must be attributed to the BAD
  // state, and the attribution must agree with in_bad_state at drop time.
  GilbertElliottChannel::Config cfg;
  cfg.loss_good = 0.0;
  cfg.loss_bad = 1.0;
  cfg.mean_good_s = 1.0;
  cfg.mean_bad_s = 1.0;
  GilbertElliottChannel ch(cfg, util::Rng(11));
  int bad_drops = 0;
  for (int i = 0; i < 20000; ++i) {
    const TimePoint t = TimePoint::from_seconds(i * 0.001);
    const ChannelVerdict v = ch.decide(make_packet(), t);
    if (!v.dropped) continue;
    ++bad_drops;
    EXPECT_EQ(v.cause.category, DropCategory::kGilbertElliottBad);
    EXPECT_TRUE(ch.in_bad_state(t));
  }
  ASSERT_GT(bad_drops, 100);

  // And with loss in the GOOD state only, drops attribute to GOOD.
  cfg.loss_good = 1.0;
  cfg.loss_bad = 0.0;
  GilbertElliottChannel good_lossy(cfg, util::Rng(12));
  int good_drops = 0;
  for (int i = 0; i < 20000; ++i) {
    const ChannelVerdict v =
        good_lossy.decide(make_packet(), TimePoint::from_seconds(i * 0.001));
    if (!v.dropped) continue;
    ++good_drops;
    EXPECT_EQ(v.cause.category, DropCategory::kGilbertElliottGood);
  }
  ASSERT_GT(good_drops, 100);
}

TEST(JitterChannelTest, AddsBoundedPositiveDelay) {
  JitterChannel ch(std::make_unique<PerfectChannel>(), 0.010, 0.5, 0.050,
                   util::Rng(5));
  for (int i = 0; i < 1000; ++i) {
    const ChannelVerdict v = ch.decide(make_packet(), TimePoint::zero());
    ASSERT_FALSE(v.dropped);
    EXPECT_GT(v.extra_delay, Duration::zero());
    EXPECT_LE(v.extra_delay, Duration::millis(50));
  }
}

TEST(JitterChannelTest, DelegatesDropsToInner) {
  JitterChannel ch(std::make_unique<BernoulliChannel>(1.0, util::Rng(1)), 0.001,
                   0.1, 0.01, util::Rng(5));
  const ChannelVerdict v = ch.decide(make_packet(), TimePoint::zero());
  ASSERT_TRUE(v.dropped);
  // The inner channel's cause passes through untouched.
  EXPECT_EQ(v.cause, DropCause::bernoulli());
}

TEST(FunctionalChannelTest, UsesProvidedCallables) {
  int drop_calls = 0;
  FunctionalChannel ch(
      [&](const Packet&, TimePoint) {
        ++drop_calls;
        return 1.0;
      },
      [](const Packet&, TimePoint) { return Duration::millis(7); }, util::Rng(1));
  const ChannelVerdict dropped = ch.decide(make_packet(), TimePoint::zero());
  ASSERT_TRUE(dropped.dropped);
  EXPECT_EQ(dropped.cause, DropCause::functional_radio());
  EXPECT_EQ(drop_calls, 1);
}

TEST(FunctionalChannelTest, DeliveredPacketsCarryTheDelayFn) {
  FunctionalChannel ch(
      [](const Packet&, TimePoint) { return 0.0; },
      [](const Packet&, TimePoint) { return Duration::millis(7); }, util::Rng(1));
  const ChannelVerdict v = ch.decide(make_packet(), TimePoint::zero());
  ASSERT_FALSE(v.dropped);
  EXPECT_EQ(v.extra_delay, Duration::millis(7));
}

TEST(FunctionalChannelTest, TimeVaryingDropProbability) {
  // Probability 1 before t=1s, 0 after.
  FunctionalChannel ch(
      [](const Packet&, TimePoint now) {
        return now < TimePoint::from_seconds(1.0) ? 1.0 : 0.0;
      },
      [](const Packet&, TimePoint) { return Duration::zero(); }, util::Rng(1));
  EXPECT_TRUE(ch.decide(make_packet(), TimePoint::from_seconds(0.5)).dropped);
  EXPECT_FALSE(ch.decide(make_packet(), TimePoint::from_seconds(1.5)).dropped);
}

TEST(DropCauseTest, CategoryNamesAreStable) {
  EXPECT_STREQ(drop_category_name(DropCategory::kQueueOverflow), "queue-overflow");
  EXPECT_STREQ(drop_category_name(DropCategory::kGilbertElliottBad),
               "gilbert-elliott-bad");
  EXPECT_STREQ(drop_category_name(DropCategory::kScriptedFault), "scripted-fault");
}

TEST(DropCauseTest, FactoriesAndPredicates) {
  EXPECT_TRUE(DropCause::queue_overflow().is_queue());
  EXPECT_FALSE(DropCause::queue_overflow().is_channel());
  EXPECT_TRUE(DropCause::scripted(3).is_scripted());
  EXPECT_EQ(DropCause::scripted(3).directive, 3);
  EXPECT_TRUE(DropCause::gilbert_elliott(true).is_channel());
  EXPECT_EQ(DropCause::gilbert_elliott(false).category,
            DropCategory::kGilbertElliottGood);
  EXPECT_FALSE(DropCause{}.is_channel());  // unknown is not a channel loss
}

}  // namespace
}  // namespace hsr::net
