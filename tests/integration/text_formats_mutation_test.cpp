// Seeded mutation sweep over the five line-oriented text formats (hsrtrace,
// hsrfaultplan, hsriofaultplan, hsrmanifest, hsrcorpusstats): every
// truncation, seeded byte flips, and token-less lines inserted at every line
// start. Each input must parse or be refused with kInvalidArgument, never
// crash; whatever parses must re-serialize to a fixed point; and a
// token-less line (blanks only, or the lone '\r' a CRLF copy leaves) must
// change nothing at all. Every file loader of these formats must refuse a
// directory as a failed read.
#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/corpus_stats.h"
#include "fault/fault.h"
#include "fault/io_fault.h"
#include "trace/trace_binary.h"
#include "trace/trace_io.h"
#include "workload/manifest.h"

namespace hsr {
namespace {

// A trace with 'F' audit lines, a lost packet still in flight ('-') and
// a scripted drop's directive ("X#4").
constexpr char kTrace[] =
    "hsrtrace-v2 flow=7\n"
    "D 1 1 0 1400 1000 31000 - 0\n"
    "D 2 2 0 1400 2000 -1 X#4 0\n"
    "D 3 3 0 1400 3000 -1 G 1\n"
    "D 4 2 0 1400 50000 -1 - 1\n"
    "A 5 0 2 52 35000 -1 Q 0\n"
    "A 6 0 2 52 36000 66000 - 0\n"
    "F D 2000 2 2 D 4 X 0 blackout\n"
    "F A 36000 6 2 A 1 L 40000000 ack-delay\n";

constexpr char kPlan[] =
    "hsrfaultplan-v1 directives=2\n"
    "X D 2000000000 2250000000 0 * 0 * 0 1 blackout\n"
    "L * 0 * 5 100 1 3 40000000 1 delay\n";

constexpr char kIoPlan[] =
    "hsriofaultplan-v1 directives=3\n"
    "W F 2 1 0 chunk- nth-write\n"
    "* E 0 * 4096 .hsrb disk-full\n"
    "R N 0 1 0 manifest tear\n";

constexpr char kManifest[] =
    "hsrmanifest-v1 spec=0123456789abcdef flows=1000 chunk_flows=256 chunks=2\n"
    "C 0 0 256 256 0 91234 00000001\n"
    "C 3 768 232 230 2 4096 deadbeef\n";

std::string stats_digest() {
  analysis::CorpusStats stats;
  analysis::FlowStatsSample a;
  a.has_timeouts = true;
  a.ack_loss_rate = 0.0125;
  a.data_loss_rate = 0.003;
  a.recovery_retx_loss_rate = 0.25;
  a.goodput_pps = 412.5;
  a.bytes_captured = 81793;
  a.sequences = {{1.75, true, true}, {0.4, false, true}};
  a.breakdown.data_sent = 4000;
  a.breakdown.data_lost = 12;
  stats.absorb(a);
  analysis::FlowStatsSample b = a;
  b.high_speed = false;
  b.goodput_pps = 530.0;
  stats.absorb(b);
  stats.absorb_quarantine();
  return stats.to_text();
}

// Parses `text` in one format; on success, the re-serialization of what was
// parsed.
using Reader = util::StatusOr<std::string> (*)(const std::string& text);

struct TextFormat {
  const char* name;
  std::string fixture;
  Reader read;
};

template <typename T>
util::StatusOr<std::string> text_of(const util::StatusOr<T>& parsed) {
  if (!parsed.is_ok()) return parsed.status();
  return parsed.value().to_text();
}

std::vector<TextFormat> formats() {
  return {
      {"hsrtrace", kTrace,
       [](const std::string& text) -> util::StatusOr<std::string> {
         std::istringstream is(text);
         const auto cap = trace::read_flow_capture(is);
         if (!cap.is_ok()) return cap.status();
         std::ostringstream os;
         trace::write_flow_capture(os, cap.value());
         return os.str();
       }},
      {"hsrfaultplan", kPlan,
       [](const std::string& text) { return text_of(fault::FaultPlan::parse(text)); }},
      {"hsriofaultplan", kIoPlan,
       [](const std::string& text) { return text_of(fault::IoFaultPlan::parse(text)); }},
      {"hsrmanifest", kManifest,
       [](const std::string& text) {
         return text_of(workload::CampaignManifest::parse(text));
       }},
      {"hsrcorpusstats", stats_digest(),
       [](const std::string& text) {
         return text_of(analysis::CorpusStats::parse(text));
       }},
  };
}

// The sweep's contract for one input: refused with kInvalidArgument, or
// parsed into something whose text re-parses to the same text.
void expect_parsed_or_refused(const TextFormat& format, const std::string& input,
                              const std::string& what) {
  const auto first = format.read(input);
  if (!first.is_ok()) {
    ASSERT_EQ(first.status().code(), util::StatusCode::kInvalidArgument)
        << format.name << " " << what << ": " << first.status().to_string();
    return;
  }
  const auto again = format.read(first.value());
  ASSERT_TRUE(again.is_ok()) << format.name << " " << what
                             << ": its own output was refused: "
                             << again.status().to_string();
  ASSERT_EQ(again.value(), first.value()) << format.name << " " << what;
}

TEST(TextFormatsMutationTest, FixturesParse) {
  for (const TextFormat& format : formats()) {
    const auto parsed = format.read(format.fixture);
    ASSERT_TRUE(parsed.is_ok()) << format.name << ": " << parsed.status().to_string();
  }
}

TEST(TextFormatsMutationTest, EveryTruncationParsesOrIsRefused) {
  for (const TextFormat& format : formats()) {
    for (std::size_t k = 0; k <= format.fixture.size(); ++k) {
      expect_parsed_or_refused(format, format.fixture.substr(0, k),
                               "truncated to " + std::to_string(k));
    }
  }
}

TEST(TextFormatsMutationTest, SeededByteFlipsParseOrAreRefused) {
  // Bytes that change how a field reads: blanks, signs, digits, the drop
  // token and header punctuation, NUL and a high byte.
  static constexpr char kInteresting[] = " \t\n\v\f\r-+0195xX.@#*=_C\0\xff";
  const std::string interesting(kInteresting, sizeof(kInteresting) - 1);
  std::mt19937_64 rng(2016);
  for (const TextFormat& format : formats()) {
    for (int trial = 0; trial < 3000; ++trial) {
      std::string input = format.fixture;
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int f = 0; f < flips; ++f) {
        const std::size_t pos = rng() % input.size();
        input[pos] = rng() % 2 == 0 ? interesting[rng() % interesting.size()]
                                    : static_cast<char>(rng() % 256);
      }
      expect_parsed_or_refused(format, input, "trial " + std::to_string(trial));
    }
  }
}

TEST(TextFormatsMutationTest, TokenlessLinesChangeNothing) {
  for (const TextFormat& format : formats()) {
    const auto pristine = format.read(format.fixture);
    ASSERT_TRUE(pristine.is_ok()) << format.name;
    std::vector<std::string> inputs = {format.fixture + " ", format.fixture + "\r"};
    for (std::size_t at = 0; at < format.fixture.size(); ++at) {
      if (at > 0 && format.fixture[at - 1] != '\n') continue;  // not a line start
      for (const char* blank : {" \n", "\r\n", "\t\v\f\n"}) {
        std::string input = format.fixture;
        inputs.push_back(input.insert(at, blank));
      }
    }
    for (const std::string& input : inputs) {
      const auto parsed = format.read(input);
      ASSERT_TRUE(parsed.is_ok()) << format.name << ": " << parsed.status().to_string()
                                  << "\n" << input;
      EXPECT_EQ(parsed.value(), pristine.value()) << format.name << "\n" << input;
    }
  }
}

// A directory opens like a file but reads nothing: each loader must report
// the failed read by path instead of parsing an empty text.
TEST(TextLoadersTest, DirectoryIsAReadError) {
  const std::string dir = testing::TempDir() + "text_loaders_test_dir";
  std::filesystem::create_directories(dir);
  const std::vector<std::pair<const char*, util::Status>> loaded = {
      {"load_flow_capture", trace::load_flow_capture(dir).status()},
      {"load_flow_capture_any", trace::load_flow_capture_any(dir).status()},
      {"verify_trace_file", trace::verify_trace_file(dir).status()},
      {"FaultPlan::load", fault::FaultPlan::load(dir).status()},
      {"IoFaultPlan::load", fault::IoFaultPlan::load(dir).status()},
      {"load_campaign_manifest", workload::load_campaign_manifest(dir).status()},
      {"load_corpus_stats", analysis::load_corpus_stats(dir).status()},
  };
  std::filesystem::remove(dir);
  for (const auto& [loader, status] : loaded) {
    EXPECT_EQ(status.code(), util::StatusCode::kInternal) << loader;
    EXPECT_EQ(status.message(), "read failed: " + dir) << loader;
  }
}

}  // namespace
}  // namespace hsr
