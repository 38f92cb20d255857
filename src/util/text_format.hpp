#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <istream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <variant>
#include <vector>

#include "util/error.hpp"

namespace krak::util {

/// The one tokenizer behind the line-oriented text formats
/// (`krakjournal`, `krakpart`, `kraksynth`, `krakfaults`, `kraktrace`,
/// `krakdeck`, `krakcosts`): lines end at '\n', tokens
/// are separated by spaces, tabs and carriage returns, and numbers are
/// parsed with std::from_chars straight out of the caller's buffer.

/// One line of a text buffer, without its '\n'.
struct TextLine {
  std::string_view text;
  std::size_t number = 0;   ///< 1-based line number
  std::size_t offset = 0;   ///< byte offset of the line's first character
  bool terminated = true;   ///< false for a trailing line with no '\n'
};

/// Walks the lines of a buffer in order.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  /// Advance to the next line; false once the buffer is exhausted.
  bool next(TextLine& line) {
    if (pos_ >= text_.size()) return false;
    const std::size_t end = text_.find('\n', pos_);
    line.terminated = end != std::string_view::npos;
    const std::size_t stop = line.terminated ? end : text_.size();
    line.text = text_.substr(pos_, stop - pos_);
    line.number = ++number_;
    line.offset = pos_;
    pos_ = line.terminated ? end + 1 : stop;
    return true;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t number_ = 0;
};

/// Blank lines and `#` comments belong to every format: the writers
/// emit neither, but annotated fixtures and hand-edited files do.
[[nodiscard]] inline bool is_blank_or_comment(std::string_view line) {
  const std::size_t start = line.find_first_not_of(" \t\r");
  return start == std::string_view::npos || line[start] == '#';
}

namespace detail {

/// std::from_chars, plus a finiteness check for floating-point types:
/// the end of the number that starts at `first`, or nullptr.
template <typename T>
[[nodiscard]] const char* scan_number(const char* first, const char* last,
                                      T& value, int base) {
  std::from_chars_result result{};
  if constexpr (std::is_floating_point_v<T>) {
    (void)base;
    result = std::from_chars(first, last, value);
    if (result.ec == std::errc{} && !std::isfinite(value)) return nullptr;
  } else {
    result = std::from_chars(first, last, value, base);
  }
  return result.ec == std::errc{} ? result.ptr : nullptr;
}

}  // namespace detail

/// Parse all of `token` as a number: false on an empty token, trailing
/// characters, overflow, or a non-finite floating-point value. `base`
/// applies to integers only.
template <typename T>
[[nodiscard]] bool parse_number(std::string_view token, T& value,
                                int base = 10) {
  const char* const last = token.data() + token.size();
  return !token.empty() &&
         detail::scan_number(token.data(), last, value, base) == last;
}

/// Cursor over the tokens of one line; never allocates.
class Tokens {
 public:
  explicit Tokens(std::string_view line) : line_(line) {}

  /// The next token; false when the line has no more.
  bool next(std::string_view& token) {
    skip_spaces();
    if (pos_ >= line_.size()) return false;
    const std::size_t start = pos_;
    while (pos_ < line_.size() && !is_space(line_[pos_])) ++pos_;
    token = line_.substr(start, pos_ - start);
    return true;
  }

  /// The next token as a number (parse_number's rules), parsed in place
  /// in one pass over its characters — the hot path of million-cell
  /// `krakpart` part lines. False at the end of the line or on a token
  /// that is not a number; next() then returns that token.
  template <typename T>
  bool next_number(T& value, int base = 10) {
    skip_spaces();
    if (pos_ >= line_.size()) return false;
    const char* const first = line_.data() + pos_;
    const char* const last = line_.data() + line_.size();
    const char* const end = detail::scan_number(first, last, value, base);
    if (end == nullptr || (end != last && !is_space(*end))) return false;
    pos_ += static_cast<std::size_t>(end - first);
    return true;
  }

 private:
  static bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }
  void skip_spaces() {
    while (pos_ < line_.size() && is_space(line_[pos_])) ++pos_;
  }

  std::string_view line_;
  std::size_t pos_ = 0;
};

/// Every token of `line`, for the formats whose lines are short.
[[nodiscard]] inline std::vector<std::string_view> split_tokens(
    std::string_view line) {
  std::vector<std::string_view> tokens;
  Tokens cursor(line);
  std::string_view token;
  while (cursor.next(token)) tokens.push_back(token);
  return tokens;
}

/// Empty when `line` is exactly the header `<magic> <version>`,
/// otherwise what is wrong with it.
[[nodiscard]] inline std::string header_error(std::string_view line,
                                              std::string_view magic,
                                              int version) {
  const std::vector<std::string_view> tokens = split_tokens(line);
  if (tokens.size() != 2 || tokens[0] != magic) {
    return "expected header '" + std::string(magic) + " " +
           std::to_string(version) + "', got '" + std::string(line) + "'";
  }
  if (tokens[1] != std::to_string(version)) {
    return "unsupported version " + std::string(tokens[1]) +
           " (this parser reads version " + std::to_string(version) + ")";
  }
  return {};
}

/// One `key=value` field of a line and the number its value parses into.
struct KeyField {
  KeyField(std::string_view name, std::variant<std::int32_t*, double*> into,
           bool is_required = true, std::optional<std::int32_t> wildcard = {})
      : key(name), target(into), required(is_required), star(wildcard) {}

  std::string_view key;
  std::variant<std::int32_t*, double*> target;
  bool required;
  /// When set, the value `*` stands for this number (`rank=*`).
  std::optional<std::int32_t> star;
};

/// The `key=value` reader of `krakfaults` directives and `kraktrace`
/// ops: parse the rest of `tokens` into `fields`. Empty on success,
/// otherwise what is wrong: a token that is not `key=value`, an unknown
/// or duplicate key, a missing required key, or a value that does not
/// parse into its field's type (parse_number's rules, so an out-of-range
/// integer or a non-finite number is an error, not a wrap).
[[nodiscard]] inline std::string read_key_values(
    Tokens& tokens, std::initializer_list<KeyField> fields) {
  std::vector<bool> seen(fields.size(), false);
  std::string_view token;
  while (tokens.next(token)) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == token.size()) {
      return "bad field '" + std::string(token) + "' (expected key=value)";
    }
    const std::string key(token.substr(0, eq));
    const std::string_view value = token.substr(eq + 1);
    std::size_t i = 0;
    while (i < fields.size() && fields.begin()[i].key != key) ++i;
    if (i == fields.size()) return "unknown field '" + key + "'";
    if (seen[i]) return "duplicate field '" + key + "'";
    seen[i] = true;
    const KeyField& field = fields.begin()[i];
    const bool parsed = std::visit(
        [&](auto* target) {
          if (!field.star.has_value() || value != "*") {
            return parse_number(value, *target);
          }
          *target = *field.star;
          return true;
        },
        field.target);
    if (!parsed) {
      return "field " + key + "='" + std::string(value) + "' is not " +
             (std::holds_alternative<std::int32_t*>(field.target)
                  ? "a 32-bit integer"
                  : "a finite number");
    }
  }
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (fields.begin()[i].required && !seen[i]) {
      return "missing field '" + std::string(fields.begin()[i].key) + "'";
    }
  }
  return {};
}

/// Parse a fixed-width field of exactly 16 hex digits (fingerprints,
/// checksums, IEEE-754 bit patterns).
[[nodiscard]] inline bool parse_hex16(std::string_view token,
                                      std::uint64_t& value) {
  return token.size() == 16 && parse_number(token, value, 16);
}

/// `value` as exactly 16 lowercase hex digits (parse_hex16's inverse).
[[nodiscard]] inline std::string hex16(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xf];
    value >>= 4;
  }
  return out;
}

/// Everything left in `in`, for the loaders that take a stream.
[[nodiscard]] inline std::string read_stream(std::istream& in) {
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The whole file at `path` in one buffer, or nullopt when it cannot be
/// opened (errno says why).
[[nodiscard]] inline std::optional<std::string> read_text_file(
    const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string text;
  in.seekg(0, std::ios::end);
  text.resize(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  return text;
}

/// read_text_file for the loaders: throws
/// KrakError("<caller>: cannot open <path>: <cause>").
[[nodiscard]] inline std::string load_text_file(const std::string& path,
                                                std::string_view caller) {
  std::optional<std::string> text = read_text_file(path);
  if (!text.has_value()) {
    throw KrakError(std::string(caller) + ": cannot open " + path + ": " +
                    errno_message());
  }
  return std::move(*text);
}

/// Open `path` for writing and hand the stream to `write`, for the
/// savers: throws KrakError("<caller>: cannot open <path>: <cause>").
template <typename Write>
void save_text_file(const std::string& path, std::string_view caller,
                    const Write& write) {
  std::ofstream out(path);
  if (!out) {
    throw KrakError(std::string(caller) + ": cannot open " + path + ": " +
                    errno_message());
  }
  write(out);
}

}  // namespace krak::util
