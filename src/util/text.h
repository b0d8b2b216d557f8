// The one rule set every line-oriented text format (hsrtrace, hsrfaultplan,
// hsriofaultplan, hsrmanifest, hsrcorpusstats) and every numeric flag or
// environment knob shares: which bytes separate tokens, what counts as a
// number, how lines are numbered, and how a parse error names its line and
// token. See DESIGN.md §6i "Text formats share one reader".
#pragma once

#include <charconv>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace hsr::util {

// Parses ALL of `text` as a T through std::from_chars: no leading blank, no
// '+', no '-' for an unsigned T, no trailing byte, no overflow. Integers are
// read in `base` (16 where a format spells hex); floating-point types take
// from_chars' general format, so "inf" and "nan" are doubles. `out` is
// written only on success.
template <typename T>
[[nodiscard]] bool parse_number(std::string_view text, T& out, int base = 10) {
  const char* const last = text.data() + text.size();
  T value{};
  std::from_chars_result res;
  if constexpr (std::is_floating_point_v<T>) {
    res = std::from_chars(text.data(), last, value);
  } else {
    res = std::from_chars(text.data(), last, value, base);
  }
  if (res.ec != std::errc() || res.ptr != last) return false;
  out = value;
  return true;
}

// Replaces `tokens` with the runs of non-blank bytes in `text`, in order:
// exactly what repeated `istream >> std::string` would extract. The blanks
// are the six bytes it skips in the "C" locale: ' ', '\t', '\n', '\v', '\f'
// and '\r'. The views point into `text`.
void split_tokens(std::string_view text, std::vector<std::string_view>& tokens);

// Walks `text` line by line ('\n'-terminated; a '\r' before it is a blank),
// numbering every line from 1 and stopping only at lines that hold at least
// one token.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : rest_(text) {}

  // Advances to the next line with a token; false once the text is spent.
  [[nodiscard]] bool next();

  const std::vector<std::string_view>& tokens() const { return tokens_; }
  std::string_view line() const { return line_; }
  std::size_t line_number() const { return line_number_; }
  // True when the current line ran into the end of the text before its
  // '\n': the signature of a torn write or a truncated copy.
  bool unterminated() const { return unterminated_; }

 private:
  std::string_view rest_;
  std::string_view line_;
  std::size_t line_number_ = 0;
  bool unterminated_ = false;
  std::vector<std::string_view> tokens_;
};

// "<format> line <N>: <why> (token '<token>')" as kInvalidArgument.
[[nodiscard]] Status line_error(std::string_view format, std::size_t line_number,
                                std::string_view token, std::string_view why);

// `value` as one token on the wire: empty becomes `fallback`, and each blank
// byte becomes '_', so a label can never split into two fields.
std::string single_token(std::string_view value, std::string_view fallback);

// Every byte left in `is`; kInternal "read failed" unless the read ends at
// a clean end of file, so a directory or an I/O error never passes for a
// shorter text.
[[nodiscard]] StatusOr<std::string> read_all(std::istream& is);

// The whole file; kNotFound "cannot open: <path>" when it cannot be opened,
// and kInternal "read failed: <path>" when read_all fails on it.
[[nodiscard]] StatusOr<std::string> read_text_file(const std::string& path);

}  // namespace hsr::util
