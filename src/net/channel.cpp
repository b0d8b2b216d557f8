#include "net/channel.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace hsr::net {

const char* drop_category_name(DropCategory category) {
  switch (category) {
    case DropCategory::kUnknown: return "unknown";
    case DropCategory::kQueueOverflow: return "queue-overflow";
    case DropCategory::kChannelUnattributed: return "channel-unattributed";
    case DropCategory::kBernoulli: return "bernoulli";
    case DropCategory::kGilbertElliottGood: return "gilbert-elliott-good";
    case DropCategory::kGilbertElliottBad: return "gilbert-elliott-bad";
    case DropCategory::kFunctionalRadio: return "functional-radio";
    case DropCategory::kScriptedFault: return "scripted-fault";
  }
  return "invalid";
}

BernoulliChannel::BernoulliChannel(double loss_probability, util::Rng rng)
    : p_(loss_probability), rng_(rng) {
  HSR_CHECK_MSG(p_ >= 0.0 && p_ <= 1.0, "loss probability out of range");
}

ChannelVerdict BernoulliChannel::decide(const Packet&, TimePoint) {
  if (rng_.bernoulli(p_)) return ChannelVerdict::drop(DropCause::bernoulli());
  return ChannelVerdict::deliver();
}

GilbertElliottChannel::GilbertElliottChannel(Config config, util::Rng rng)
    : cfg_(config), rng_(rng) {
  HSR_CHECK(cfg_.mean_good_s > 0.0 && cfg_.mean_bad_s > 0.0);
}

void GilbertElliottChannel::advance_to(TimePoint now) {
  if (!initialized_) {
    // Start in GOOD with the first sojourn sampled from its distribution.
    bad_ = false;
    next_transition_ =
        TimePoint::zero() + Duration::from_seconds(rng_.exponential(cfg_.mean_good_s));
    initialized_ = true;
  }
  while (next_transition_ <= now) {
    bad_ = !bad_;
    const double mean = bad_ ? cfg_.mean_bad_s : cfg_.mean_good_s;
    next_transition_ = next_transition_ + Duration::from_seconds(rng_.exponential(mean));
  }
}

ChannelVerdict GilbertElliottChannel::decide(const Packet&, TimePoint now) {
  advance_to(now);
  if (rng_.bernoulli(bad_ ? cfg_.loss_bad : cfg_.loss_good)) {
    return ChannelVerdict::drop(DropCause::gilbert_elliott(bad_));
  }
  return ChannelVerdict::deliver();
}

bool GilbertElliottChannel::in_bad_state(TimePoint now) {
  advance_to(now);
  return bad_;
}

double GilbertElliottChannel::stationary_loss_rate() const {
  const double total = cfg_.mean_good_s + cfg_.mean_bad_s;
  return (cfg_.mean_good_s / total) * cfg_.loss_good +
         (cfg_.mean_bad_s / total) * cfg_.loss_bad;
}

JitterChannel::JitterChannel(std::unique_ptr<ChannelModel> inner,
                             double median_jitter_s, double sigma,
                             double max_jitter_s, util::Rng rng)
    : inner_(std::move(inner)), mu_(std::log(std::max(median_jitter_s, 1e-9))),
      sigma_(sigma), max_s_(max_jitter_s), rng_(rng) {
  HSR_CHECK(inner_ != nullptr);
}

ChannelVerdict JitterChannel::decide(const Packet& p, TimePoint now) {
  ChannelVerdict v = inner_->decide(p, now);
  if (v.dropped) return v;
  const double jitter = std::min(rng_.lognormal(mu_, sigma_), max_s_);
  v.extra_delay += Duration::from_seconds(jitter);
  return v;
}

FunctionalChannel::FunctionalChannel(DropProbFn drop_prob, DelayFn delay, util::Rng rng)
    : drop_prob_(std::move(drop_prob)), delay_(std::move(delay)), rng_(rng) {
  HSR_CHECK(drop_prob_ != nullptr && delay_ != nullptr);
}

ChannelVerdict FunctionalChannel::decide(const Packet& p, TimePoint now) {
  if (rng_.bernoulli(drop_prob_(p, now))) {
    return ChannelVerdict::drop(DropCause::functional_radio());
  }
  return ChannelVerdict::deliver(delay_(p, now));
}

}  // namespace hsr::net
