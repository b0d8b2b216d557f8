#include "util/text.h"

#include <fstream>
#include <istream>

namespace hsr::util {

namespace {

// ' ', '\t', '\n', '\v', '\f' or '\r'.
bool is_blank(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

void split_tokens(std::string_view text, std::vector<std::string_view>& tokens) {
  tokens.clear();
  const char* p = text.data();
  const char* const end = p + text.size();
  for (;;) {
    while (p != end && is_blank(*p)) ++p;
    if (p == end) return;
    const char* const start = p;
    while (p != end && !is_blank(*p)) ++p;
    tokens.emplace_back(start, static_cast<std::size_t>(p - start));
  }
}

bool LineReader::next() {
  while (!rest_.empty()) {
    const std::size_t newline = rest_.find('\n');
    unterminated_ = newline == std::string_view::npos;
    line_ = rest_.substr(0, newline);
    rest_.remove_prefix(unterminated_ ? rest_.size() : newline + 1);
    ++line_number_;
    split_tokens(line_, tokens_);
    if (!tokens_.empty()) return true;
  }
  return false;
}

Status line_error(std::string_view format, std::size_t line_number,
                  std::string_view token, std::string_view why) {
  return Status::invalid_argument(std::string(format) + " line " +
                                  std::to_string(line_number) + ": " + std::string(why) +
                                  " (token '" + std::string(token) + "')");
}

std::string single_token(std::string_view value, std::string_view fallback) {
  std::string out(value.empty() ? fallback : value);
  for (char& c : out) {
    if (is_blank(c)) c = '_';
  }
  return out;
}

StatusOr<std::string> read_all(std::istream& is) {
  std::string text;
  char buf[1 << 16];
  do {
    is.read(buf, sizeof(buf));
    text.append(buf, static_cast<std::size_t>(is.gcount()));
  } while (is);
  if (is.bad() || !is.eof()) return Status::internal("read failed");
  return text;
}

StatusOr<std::string> read_text_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::not_found("cannot open: " + path);
  auto text = read_all(f);
  if (!text.is_ok()) return Status::internal("read failed: " + path);
  return text;
}

}  // namespace hsr::util
