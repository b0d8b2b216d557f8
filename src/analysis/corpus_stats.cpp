#include "analysis/corpus_stats.h"

#include <string_view>
#include <vector>

#include "util/format.h"
#include "util/text.h"

namespace hsr::analysis {

FlowStatsSample FlowStatsSample::from_flow(const FlowAnalysis& flow,
                                           const LossBreakdown& breakdown,
                                           bool high_speed,
                                           std::uint64_t bytes_captured) {
  FlowStatsSample s;
  s.high_speed = high_speed;
  s.has_timeouts = flow.has_timeouts();
  s.ack_loss_rate = flow.ack_loss_rate;
  s.data_loss_rate = flow.data_loss_rate;
  s.first_tx_loss_rate = flow.first_tx_loss_rate;
  s.recovery_retx_loss_rate = flow.recovery_retx_loss_rate;
  s.goodput_pps = flow.goodput_pps;
  s.bytes_captured = bytes_captured;
  s.sequences.reserve(flow.timeout_sequences.size());
  for (const auto& ts : flow.timeout_sequences) {
    s.sequences.push_back(SequenceSample{ts.duration().to_seconds(), ts.spurious,
                                         ts.recovered_observed});
  }
  s.breakdown = breakdown;
  return s;
}

void CorpusStats::absorb(const FlowStatsSample& sample) {
  // The add order below mirrors Corpus::headline()'s per-entry adds exactly;
  // with absorb() called in flow order every accumulator sees the identical
  // floating-point sequence, which is what makes headline() bitwise equal.
  if (sample.high_speed) {
    ++flows_highspeed_;
    ack_loss_highspeed_.add(sample.ack_loss_rate);
    data_loss_highspeed_.add(sample.data_loss_rate);
    first_tx_loss_highspeed_.add(sample.first_tx_loss_rate);
    goodput_highspeed_.add(sample.goodput_pps);
    if (sample.has_timeouts) {
      recovery_loss_highspeed_.add(sample.recovery_retx_loss_rate);
      for (const auto& seq : sample.sequences) {
        ++timeout_sequences_highspeed_;
        if (seq.spurious) ++spurious_sequences_highspeed_;
        if (seq.recovered) recovery_highspeed_.add(seq.duration_s);
      }
    }
  } else {
    ++flows_stationary_;
    ack_loss_stationary_.add(sample.ack_loss_rate);
    data_loss_stationary_.add(sample.data_loss_rate);
    goodput_stationary_.add(sample.goodput_pps);
    for (const auto& seq : sample.sequences) {
      if (seq.recovered) recovery_stationary_.add(seq.duration_s);
    }
  }
  bytes_captured_ += sample.bytes_captured;

  const LossBreakdown& b = sample.breakdown;
  loss_totals_.data_sent += b.data_sent;
  loss_totals_.data_lost += b.data_lost;
  loss_totals_.ack_sent += b.ack_sent;
  loss_totals_.ack_lost += b.ack_lost;
  for (std::size_t c = 0; c < net::kDropCategoryCount; ++c) {
    loss_totals_.data_by_category[c] += b.data_by_category[c];
    loss_totals_.ack_by_category[c] += b.ack_by_category[c];
  }
  loss_totals_.data_unattributed += b.data_unattributed;
  loss_totals_.ack_unattributed += b.ack_unattributed;
  loss_totals_.scripted_drops += b.scripted_drops;
}

void CorpusStats::absorb_quarantine() { ++quarantined_; }

Corpus::Headline CorpusStats::headline() const {
  Corpus::Headline h;
  h.mean_recovery_s_highspeed = recovery_highspeed_.mean();
  h.mean_recovery_s_stationary = recovery_stationary_.mean();
  h.spurious_timeout_share =
      timeout_sequences_highspeed_ == 0
          ? 0.0
          : static_cast<double>(spurious_sequences_highspeed_) /
                static_cast<double>(timeout_sequences_highspeed_);
  h.mean_ack_loss_highspeed = ack_loss_highspeed_.mean();
  h.mean_ack_loss_stationary = ack_loss_stationary_.mean();
  h.mean_data_loss_highspeed = data_loss_highspeed_.mean();
  h.mean_recovery_loss_highspeed = recovery_loss_highspeed_.mean();
  h.flows_highspeed = static_cast<std::size_t>(flows_highspeed_);
  h.flows_stationary = static_cast<std::size_t>(flows_stationary_);
  h.timeout_sequences_highspeed = static_cast<std::size_t>(timeout_sequences_highspeed_);
  return h;
}

namespace {

constexpr char kStatsHeader[] = "hsrcorpusstats-v1";

void append_stat(std::string& out, const char* name, const util::RunningStats& s) {
  out += "stat ";
  out += name;
  out += ' ';
  out += std::to_string(s.count());
  out += ' ';
  // Shortest round-trip doubles, so a stats file re-parses to
  // bitwise-identical accumulators.
  out += util::format_double(s.count() > 0 ? s.mean() : 0.0);
  out += ' ';
  out += util::format_double(s.m2());
  out += ' ';
  out += util::format_double(s.min());
  out += ' ';
  out += util::format_double(s.max());
  out += '\n';
}

// A cursor over the digest's tokens (util::split_tokens): the first failure
// sticks, and every number must parse whole (util::parse_number).
struct StatsParser {
  std::vector<std::string_view> tokens;
  std::size_t next_index = 0;
  bool failed = false;
  std::string error;

  explicit StatsParser(std::string_view text) { util::split_tokens(text, tokens); }

  void fail(const std::string& why) {
    if (!failed) {
      failed = true;
      error = why;
    }
  }

  std::string_view next() {
    if (failed || next_index == tokens.size()) {
      fail("unexpected end of stats text");
      return {};
    }
    return tokens[next_index++];
  }

  void expect(std::string_view literal) {
    const std::string_view t = next();
    if (t != literal) {
      fail("expected '" + std::string(literal) + "', got '" + std::string(t) + "'");
    }
  }

  // The next token as a T; `what` names the kind of number in the error.
  template <typename T>
  T number(const char* what) {
    const std::string_view t = next();
    T v{};
    if (!failed && !util::parse_number(t, v)) {
      fail(std::string("bad ") + what + " '" + std::string(t) + "'");
    }
    return v;
  }
  std::uint64_t get_u64() { return number<std::uint64_t>("integer"); }
  double get_double() { return number<double>("number"); }

  util::RunningStats get_stat(const char* name) {
    expect("stat");
    expect(name);
    const std::uint64_t n = get_u64();
    const double mean = get_double();
    const double m2 = get_double();
    const double min = get_double();
    const double max = get_double();
    return util::RunningStats::from_parts(static_cast<std::size_t>(n), mean, m2, min,
                                          max);
  }
};

}  // namespace

std::string CorpusStats::to_text() const {
  std::string out;
  out += kStatsHeader;
  out += '\n';
  out += "flows " + std::to_string(flows_highspeed_) + ' ' +
         std::to_string(flows_stationary_) + '\n';
  out += "quarantined " + std::to_string(quarantined_) + '\n';
  out += "sequences " + std::to_string(timeout_sequences_highspeed_) + ' ' +
         std::to_string(spurious_sequences_highspeed_) + '\n';
  out += "bytes " + std::to_string(bytes_captured_) + '\n';

  append_stat(out, "recovery_hs", recovery_highspeed_);
  append_stat(out, "recovery_st", recovery_stationary_);
  append_stat(out, "ack_loss_hs", ack_loss_highspeed_);
  append_stat(out, "ack_loss_st", ack_loss_stationary_);
  append_stat(out, "data_loss_hs", data_loss_highspeed_);
  append_stat(out, "data_loss_st", data_loss_stationary_);
  append_stat(out, "first_tx_loss_hs", first_tx_loss_highspeed_);
  append_stat(out, "recovery_loss_hs", recovery_loss_highspeed_);
  append_stat(out, "goodput_hs", goodput_highspeed_);
  append_stat(out, "goodput_st", goodput_stationary_);

  out += "loss " + std::to_string(loss_totals_.data_sent) + ' ' +
         std::to_string(loss_totals_.data_lost) + ' ' +
         std::to_string(loss_totals_.ack_sent) + ' ' +
         std::to_string(loss_totals_.ack_lost) + ' ' +
         std::to_string(loss_totals_.data_unattributed) + ' ' +
         std::to_string(loss_totals_.ack_unattributed) + ' ' +
         std::to_string(loss_totals_.scripted_drops) + '\n';
  out += "losscat data";
  for (std::size_t c = 0; c < net::kDropCategoryCount; ++c) {
    out += ' ';
    out += std::to_string(loss_totals_.data_by_category[c]);
  }
  out += '\n';
  out += "losscat ack";
  for (std::size_t c = 0; c < net::kDropCategoryCount; ++c) {
    out += ' ';
    out += std::to_string(loss_totals_.ack_by_category[c]);
  }
  out += '\n';
  return out;
}

util::StatusOr<CorpusStats> CorpusStats::parse(const std::string& text) {
  StatsParser p(text);
  p.expect(kStatsHeader);

  CorpusStats s;
  p.expect("flows");
  s.flows_highspeed_ = p.get_u64();
  s.flows_stationary_ = p.get_u64();
  p.expect("quarantined");
  s.quarantined_ = p.get_u64();
  p.expect("sequences");
  s.timeout_sequences_highspeed_ = p.get_u64();
  s.spurious_sequences_highspeed_ = p.get_u64();
  p.expect("bytes");
  s.bytes_captured_ = p.get_u64();

  s.recovery_highspeed_ = p.get_stat("recovery_hs");
  s.recovery_stationary_ = p.get_stat("recovery_st");
  s.ack_loss_highspeed_ = p.get_stat("ack_loss_hs");
  s.ack_loss_stationary_ = p.get_stat("ack_loss_st");
  s.data_loss_highspeed_ = p.get_stat("data_loss_hs");
  s.data_loss_stationary_ = p.get_stat("data_loss_st");
  s.first_tx_loss_highspeed_ = p.get_stat("first_tx_loss_hs");
  s.recovery_loss_highspeed_ = p.get_stat("recovery_loss_hs");
  s.goodput_highspeed_ = p.get_stat("goodput_hs");
  s.goodput_stationary_ = p.get_stat("goodput_st");

  p.expect("loss");
  s.loss_totals_.data_sent = p.get_u64();
  s.loss_totals_.data_lost = p.get_u64();
  s.loss_totals_.ack_sent = p.get_u64();
  s.loss_totals_.ack_lost = p.get_u64();
  s.loss_totals_.data_unattributed = p.get_u64();
  s.loss_totals_.ack_unattributed = p.get_u64();
  s.loss_totals_.scripted_drops = p.get_u64();
  p.expect("losscat");
  p.expect("data");
  for (std::size_t c = 0; c < net::kDropCategoryCount; ++c) {
    s.loss_totals_.data_by_category[c] = p.get_u64();
  }
  p.expect("losscat");
  p.expect("ack");
  for (std::size_t c = 0; c < net::kDropCategoryCount; ++c) {
    s.loss_totals_.ack_by_category[c] = p.get_u64();
  }

  if (p.failed) {
    return util::Status::invalid_argument("corpus stats parse: " + p.error);
  }
  return s;
}

util::Status save_corpus_stats(util::Fs& fs, const std::string& path,
                               const CorpusStats& stats) {
  // Atomic write through the seam, same contract as trace_io::save_flow_capture:
  // a killed run never leaves a half-written digest under the real name.
  return util::write_file_atomic(fs, path, stats.to_text());
}

util::Status save_corpus_stats(const std::string& path, const CorpusStats& stats) {
  return save_corpus_stats(util::Fs::real(), path, stats);
}

util::StatusOr<CorpusStats> load_corpus_stats(const std::string& path) {
  auto text = util::read_text_file(path);
  if (!text.is_ok()) return text.status();
  return CorpusStats::parse(text.value());
}

}  // namespace hsr::analysis
