// Channel models decide per-packet fate on the air. Each model implements a
// single virtual — `decide()` — returning a ChannelVerdict: whether the
// packet is dropped (with a DropCause: the category of the mechanism and,
// for a scripted kill, the directive that fired), how much extra
// (non-queueing) delay it picks up, and how many duplicate copies the
// channel injects.
//
// Every flow attached to a Link brings its own ChannelModel for that
// direction (see Link::register_endpoint). The production radio is one
// FunctionalChannel over radio::RadioEnvironment, optionally wrapped in a
// fault::FaultInjector; the other models serve tests, benches and
// ablations. Models stack only by wrapping one inner channel (JitterChannel,
// fault::FaultInjector), and a wrapper passes the inner drop cause through
// untouched, so a cause never has to say where in a stack it arose.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/packet.h"
#include "util/rng.h"
#include "util/time.h"

namespace hsr::net {

// WHY a packet died: the category of the mechanism that killed it. The
// queue category comes from the Link (DropTail overflow); every other
// category is produced by a channel class. kChannelUnattributed only
// appears when re-reading v1 trace archives, whose 'C' drop code predates
// cause attribution; live simulations always attribute finer than that.
enum class DropCategory : std::uint8_t {
  kUnknown = 0,             // no attribution recorded at all
  kQueueOverflow = 1,       // DropTail queue full at enqueue
  kChannelUnattributed = 2, // legacy archives: channel loss, cause unrecorded
  kBernoulli = 3,           // BernoulliChannel i.i.d. loss
  kGilbertElliottGood = 4,  // Gilbert–Elliott loss drawn in the GOOD state
  kGilbertElliottBad = 5,   // Gilbert–Elliott loss drawn in the BAD state
  kFunctionalRadio = 6,     // FunctionalChannel (the radio environment)
  kScriptedFault = 7,       // fault::FaultInjector directive
};
inline constexpr std::size_t kDropCategoryCount = 8;

// Human-readable category name ("queue-overflow", "gilbert-elliott-bad", ...).
const char* drop_category_name(DropCategory category);

// Structured drop attribution: the category of the mechanism that killed
// the packet and, for scripted kills, which FaultPlan directive fired.
struct DropCause {
  DropCategory category = DropCategory::kUnknown;
  // Index of the scripted FaultPlan directive that fired; -1 for organic
  // (non-scripted) drops.
  std::int32_t directive = -1;

  bool is_queue() const { return category == DropCategory::kQueueOverflow; }
  bool is_channel() const {
    return category != DropCategory::kQueueOverflow &&
           category != DropCategory::kUnknown;
  }
  bool is_scripted() const { return category == DropCategory::kScriptedFault; }

  static DropCause of(DropCategory category) {
    DropCause c;
    c.category = category;
    return c;
  }
  static DropCause queue_overflow() { return of(DropCategory::kQueueOverflow); }
  static DropCause bernoulli() { return of(DropCategory::kBernoulli); }
  static DropCause gilbert_elliott(bool bad_state) {
    return of(bad_state ? DropCategory::kGilbertElliottBad
                        : DropCategory::kGilbertElliottGood);
  }
  static DropCause functional_radio() {
    return of(DropCategory::kFunctionalRadio);
  }
  static DropCause scripted(std::int32_t directive_index) {
    DropCause c = of(DropCategory::kScriptedFault);
    c.directive = directive_index;
    return c;
  }

  friend bool operator==(const DropCause&, const DropCause&) = default;
};

// The complete fate decision for one packet crossing a channel. When
// `dropped` is true the packet never arrives and `cause` says why;
// extra_delay/duplicate_copies are meaningful only for delivered packets
// (callers must ignore them on a drop).
struct ChannelVerdict {
  bool dropped = false;
  DropCause cause;                           // valid only when dropped
  Duration extra_delay = Duration::zero();   // valid only when delivered
  unsigned duplicate_copies = 0;             // EXTRA copies; valid when delivered

  static ChannelVerdict deliver(Duration delay = Duration::zero(),
                                unsigned copies = 0) {
    ChannelVerdict v;
    v.extra_delay = delay;
    v.duplicate_copies = copies;
    return v;
  }
  static ChannelVerdict drop(DropCause why) {
    ChannelVerdict v;
    v.dropped = true;
    v.cause = why;
    return v;
  }
};

class ChannelModel {
 public:
  virtual ~ChannelModel() = default;

  // Decides this packet's complete fate at time `now` in ONE call: drop
  // (cause-coded), extra propagation delay, and injected duplicate copies.
  // Called exactly once per packet offered to the channel, in send order, so
  // stateful models (Gilbert–Elliott, fade processes) evolve consistently.
  virtual ChannelVerdict decide(const Packet& packet, TimePoint now) = 0;
};

// Never drops, never delays. The wired (server-side) segment.
class PerfectChannel final : public ChannelModel {
 public:
  ChannelVerdict decide(const Packet&, TimePoint) override {
    return ChannelVerdict::deliver();
  }
};

// Independent per-packet loss with fixed probability.
class BernoulliChannel final : public ChannelModel {
 public:
  BernoulliChannel(double loss_probability, util::Rng rng);

  ChannelVerdict decide(const Packet&, TimePoint) override;

 private:
  double p_;
  util::Rng rng_;
};

// Two-state continuous-time Gilbert–Elliott channel. The state (GOOD/BAD)
// evolves with exponential sojourn times; each state has its own loss
// probability. Models bursty wireless loss. Drops are attributed to the
// state they were drawn in (kGilbertElliottGood / kGilbertElliottBad).
class GilbertElliottChannel final : public ChannelModel {
 public:
  struct Config {
    double loss_good = 0.0;      // per-packet loss prob in GOOD
    double loss_bad = 0.5;       // per-packet loss prob in BAD
    double mean_good_s = 10.0;   // mean sojourn in GOOD, seconds
    double mean_bad_s = 0.5;     // mean sojourn in BAD, seconds
  };

  GilbertElliottChannel(Config config, util::Rng rng);

  ChannelVerdict decide(const Packet&, TimePoint now) override;

  bool in_bad_state(TimePoint now);
  // Expected stationary loss rate = w_bad*loss_bad + w_good*loss_good.
  double stationary_loss_rate() const;

 private:
  void advance_to(TimePoint now);

  Config cfg_;
  util::Rng rng_;
  bool bad_ = false;
  TimePoint next_transition_ = TimePoint::zero();
  bool initialized_ = false;
};

// Adds i.i.d. log-normal jitter on top of an inner channel's behaviour.
// Drops are the inner channel's (cause passed through untouched); the jitter
// draw is skipped for dropped packets, since delay of a dead packet is
// meaningless.
class JitterChannel final : public ChannelModel {
 public:
  // jitter ~ LogNormal with given median (seconds) and sigma; capped.
  JitterChannel(std::unique_ptr<ChannelModel> inner, double median_jitter_s,
                double sigma, double max_jitter_s, util::Rng rng);

  ChannelVerdict decide(const Packet& p, TimePoint now) override;

 private:
  std::unique_ptr<ChannelModel> inner_;
  double mu_;     // log of the median
  double sigma_;
  double max_s_;
  util::Rng rng_;
};

// Adapts a pair of time-varying callables (drop probability, extra delay)
// into a ChannelModel. The radio module plugs its environment in this way;
// drops are attributed to kFunctionalRadio.
class FunctionalChannel final : public ChannelModel {
 public:
  using DropProbFn = std::function<double(const Packet&, TimePoint)>;
  using DelayFn = std::function<Duration(const Packet&, TimePoint)>;

  FunctionalChannel(DropProbFn drop_prob, DelayFn delay, util::Rng rng);

  ChannelVerdict decide(const Packet& p, TimePoint now) override;

 private:
  DropProbFn drop_prob_;
  DelayFn delay_;
  util::Rng rng_;
};

}  // namespace hsr::net
