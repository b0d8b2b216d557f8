// CorpusStats: the online accumulators must reproduce Corpus::headline()
// BITWISE when absorbed in entry order, and serialize to a digest that
// parses back to the identical accumulators.
#include "analysis/corpus_stats.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "workload/dataset.h"

namespace hsr::analysis {
namespace {

// A small but non-trivial campaign: high-speed + stationary flows, enough
// timeouts for the recovery and q-hat accumulators to see real samples.
const workload::DatasetResult& dataset() {
  static const workload::DatasetResult result = [] {
    workload::DatasetSpec spec = workload::DatasetSpec::paper_table1(0.02);
    spec.flow_duration_min = util::Duration::seconds(20);
    spec.flow_duration_max = util::Duration::seconds(30);
    spec.threads = 1;
    return workload::generate_dataset(spec);
  }();
  return result;
}

TEST(CorpusStatsTest, HeadlineIsBitwiseEqualToInMemoryCorpus) {
  const auto& ds = dataset();
  ASSERT_TRUE(ds.complete());
  ASSERT_GT(ds.flows.size(), 4u);

  const Corpus::Headline from_corpus = ds.corpus.headline();
  const Corpus::Headline from_stats = ds.stats.headline();

  // Bitwise, not approximate: the absorb order mirrors the corpus's own
  // accumulation order, so every double must match exactly (EXPECT_EQ on
  // doubles is exact equality).
  EXPECT_EQ(from_corpus.mean_recovery_s_highspeed, from_stats.mean_recovery_s_highspeed);
  EXPECT_EQ(from_corpus.mean_recovery_s_stationary, from_stats.mean_recovery_s_stationary);
  EXPECT_EQ(from_corpus.spurious_timeout_share, from_stats.spurious_timeout_share);
  EXPECT_EQ(from_corpus.mean_ack_loss_highspeed, from_stats.mean_ack_loss_highspeed);
  EXPECT_EQ(from_corpus.mean_ack_loss_stationary, from_stats.mean_ack_loss_stationary);
  EXPECT_EQ(from_corpus.mean_data_loss_highspeed, from_stats.mean_data_loss_highspeed);
  EXPECT_EQ(from_corpus.mean_recovery_loss_highspeed,
            from_stats.mean_recovery_loss_highspeed);
  EXPECT_EQ(from_corpus.flows_highspeed, from_stats.flows_highspeed);
  EXPECT_EQ(from_corpus.flows_stationary, from_stats.flows_stationary);
  EXPECT_EQ(from_corpus.timeout_sequences_highspeed,
            from_stats.timeout_sequences_highspeed);
}

TEST(CorpusStatsTest, TextDigestRoundTripsBitwise) {
  const auto& ds = dataset();
  const std::string digest = ds.stats.to_text();
  ASSERT_FALSE(digest.empty());
  EXPECT_EQ(digest.rfind("hsrcorpusstats-v1", 0), 0u) << digest.substr(0, 40);

  const auto parsed = CorpusStats::parse(digest);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  // The digest is the comparison key two corpus paths are judged by, so
  // parse(to_text()) must be a fixed point.
  EXPECT_EQ(parsed.value().to_text(), digest);
  EXPECT_EQ(parsed.value().flows(), ds.stats.flows());
  EXPECT_EQ(parsed.value().bytes_captured(), ds.stats.bytes_captured());
}

TEST(CorpusStatsTest, ParseRejectsMalformedDigests) {
  EXPECT_FALSE(CorpusStats::parse("").is_ok());
  EXPECT_FALSE(CorpusStats::parse("not-a-digest\n").is_ok());
  // Damage one token of a valid digest.
  std::string digest = dataset().stats.to_text();
  digest.replace(digest.find("stat recovery_hs"), 16, "stat recovery_xx");
  EXPECT_FALSE(CorpusStats::parse(digest).is_ok());
}

TEST(CorpusStatsTest, SaveLoadRoundTripsAtomically) {
  const std::string path = "corpus_stats_test_digest.txt";
  const auto& stats = dataset().stats;
  ASSERT_TRUE(save_corpus_stats(path, stats).is_ok());
  // No temp file left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());

  const auto loaded = load_corpus_stats(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().to_text(), stats.to_text());
  std::remove(path.c_str());

  EXPECT_FALSE(load_corpus_stats("no_such_digest_file.txt").is_ok());
}

}  // namespace
}  // namespace hsr::analysis
