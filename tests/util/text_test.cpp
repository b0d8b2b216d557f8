// util/text: the one token, number and line rule every text format and
// numeric flag shares. split_tokens must agree with `istream >>` byte for
// byte, parse_number must take only whole tokens, and LineReader must number
// every line while stopping only at lines that hold a token.
#include "util/text.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "util/format.h"

namespace hsr::util {
namespace {

TEST(TextTest, ParseNumberTakesOnlyWholeTokens) {
  std::uint64_t u = 7;
  EXPECT_TRUE(parse_number("18446744073709551615", u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(parse_number("007", u));
  EXPECT_EQ(u, 7u);
  // Refused, and `out` is left as it was.
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x1", "18446744073709551616",
                          "inf", "nan", "1.5"}) {
    EXPECT_FALSE(parse_number(bad, u)) << "'" << bad << "'";
    EXPECT_EQ(u, 7u) << "'" << bad << "'";
  }

  std::int64_t i = 0;
  EXPECT_TRUE(parse_number("-5", i));
  EXPECT_EQ(i, -5);
  EXPECT_FALSE(parse_number("+5", i));
  std::int16_t narrow = 0;
  EXPECT_TRUE(parse_number("-32768", narrow));
  EXPECT_FALSE(parse_number("32768", narrow));

  // Base 16 where a format spells hex: no prefix, either case, no overflow.
  std::uint32_t crc = 0;
  EXPECT_TRUE(parse_number("deadBEEF", crc, 16));
  EXPECT_EQ(crc, 0xdeadbeefu);
  EXPECT_FALSE(parse_number("0xdeadbeef", crc, 16));
  EXPECT_FALSE(parse_number("100000000", crc, 16));
  EXPECT_FALSE(parse_number("beeg", crc, 16));

  // Doubles follow from_chars' general format, "inf" and "nan" included;
  // range checks are the caller's.
  double d = 0.0;
  EXPECT_TRUE(parse_number("1.5e-3", d));
  EXPECT_EQ(d, 1.5e-3);
  EXPECT_TRUE(parse_number("-inf", d));
  EXPECT_TRUE(std::isinf(d));
  EXPECT_TRUE(parse_number("nan", d));
  EXPECT_TRUE(std::isnan(d));
  for (const char* bad : {"", "+1", " 1", "1.5x", "1e999", "0x1p3"}) {
    d = 2.0;
    EXPECT_FALSE(parse_number(bad, d)) << "'" << bad << "'";
    EXPECT_EQ(d, 2.0) << "'" << bad << "'";
  }
}

// The tokenizer must cut exactly where `istream >> std::string` does, over
// byte strings dense in the six blank bytes and in bytes some locales call
// blank but the "C" locale does not (NUL, 0x85, 0xA0).
TEST(TextTest, SplitTokensAgreesWithStreamExtraction) {
  static constexpr char kAlphabet[] = "  \t\n\v\f\rab09-\0\x85\xa0";
  const std::string alphabet(kAlphabet, sizeof(kAlphabet) - 1);
  std::mt19937_64 rng(20161);
  std::vector<std::string_view> views;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text(rng() % 40, ' ');
    for (char& c : text) c = alphabet[rng() % alphabet.size()];

    std::vector<std::string> want;
    std::istringstream is(text);
    for (std::string tok; is >> tok;) want.push_back(tok);

    split_tokens(text, views);
    const std::vector<std::string> got(views.begin(), views.end());
    ASSERT_EQ(got, want) << "trial " << trial;
  }
}

TEST(TextTest, LineReaderNumbersEveryLineAndStopsOnlyAtTokens) {
  LineReader lines("a\n\n \t\r\nb  c\r\n\v\nd");
  ASSERT_TRUE(lines.next());
  EXPECT_EQ(lines.line_number(), 1u);
  EXPECT_EQ(lines.tokens(), (std::vector<std::string_view>{"a"}));
  EXPECT_FALSE(lines.unterminated());

  ASSERT_TRUE(lines.next());
  EXPECT_EQ(lines.line_number(), 4u);
  EXPECT_EQ(lines.line(), "b  c\r");
  EXPECT_EQ(lines.tokens(), (std::vector<std::string_view>{"b", "c"}));
  EXPECT_FALSE(lines.unterminated());

  ASSERT_TRUE(lines.next());
  EXPECT_EQ(lines.line_number(), 6u);
  EXPECT_EQ(lines.line(), "d");
  EXPECT_TRUE(lines.unterminated());  // ran into the end before its '\n'
  EXPECT_FALSE(lines.next());

  LineReader blank(" \r\n\t\n\f");
  EXPECT_FALSE(blank.next());
  LineReader empty("");
  EXPECT_FALSE(empty.next());
  LineReader terminated("x\n");
  ASSERT_TRUE(terminated.next());
  EXPECT_FALSE(terminated.unterminated());
  EXPECT_FALSE(terminated.next());
}

TEST(TextTest, LineErrorNamesFormatLineAndToken) {
  const Status s = line_error("trace", 3, "2}", "bad seq");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "trace line 3: bad seq (token '2}')");
}

TEST(TextTest, SingleTokenReplacesEveryBlankByte) {
  EXPECT_EQ(single_token("", "fault"), "fault");
  EXPECT_EQ(single_token("a b\tc\nd\ve\ff\rg", "x"), "a_b_c_d_e_f_g");
  EXPECT_EQ(single_token("tunnel-3", "x"), "tunnel-3");
}

TEST(TextTest, ReadTextFileReturnsEveryByte) {
  const std::string path = testing::TempDir() + "/hsr_text_test.bin";
  const std::string bytes("a\0b\r\n\xff", 6);
  {
    std::ofstream f(path, std::ios::binary);
    f << bytes;
  }
  const auto read = read_text_file(path);
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  EXPECT_EQ(read.value(), bytes);
  std::remove(path.c_str());

  const auto missing = read_text_file(path);
  ASSERT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(TextTest, FormatHexIsZeroPaddedLowercase) {
  EXPECT_EQ(format_hex(0xdeadbeef, 8), "deadbeef");
  EXPECT_EQ(format_hex(1, 8), "00000001");
  EXPECT_EQ(format_hex(0x0123456789abcdefull, 16), "0123456789abcdef");
  EXPECT_EQ(format_hex(0x123456789ull, 8), "23456789");  // the low digits only
}

}  // namespace
}  // namespace hsr::util
