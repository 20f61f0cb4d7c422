#include "json/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/fs.hpp"

namespace mosaic::json {

using util::Error;
using util::ErrorCode;
using util::Expected;

void Object::set(std::string key, Value value) {
  if (const auto it = index_.find(key); it != index_.end()) {
    entries_[it->second].second = std::move(value);
    return;
  }
  index_.emplace(key, entries_.size());
  entries_.emplace_back(std::move(key), std::move(value));
}

const Value* Object::find(std::string_view key) const noexcept {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &entries_[it->second].second;
}

Value* Object::find(std::string_view key) noexcept {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &entries_[it->second].second;
}

bool Value::as_bool() const {
  MOSAIC_ASSERT(is_bool());
  return std::get<bool>(data_);
}

double Value::as_number() const {
  MOSAIC_ASSERT(is_number());
  return std::get<double>(data_);
}

const std::string& Value::as_string() const {
  MOSAIC_ASSERT(is_string());
  return std::get<std::string>(data_);
}

const Array& Value::as_array() const {
  MOSAIC_ASSERT(is_array());
  return std::get<Array>(data_);
}

Array& Value::as_array() {
  MOSAIC_ASSERT(is_array());
  return std::get<Array>(data_);
}

const Object& Value::as_object() const {
  MOSAIC_ASSERT(is_object());
  return std::get<Object>(data_);
}

Object& Value::as_object() {
  MOSAIC_ASSERT(is_object());
  return std::get<Object>(data_);
}

namespace {

void append_escaped(std::string& out, std::string_view text) {
  out += '"';
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// std::to_chars always formats in the C locale; snprintf honors LC_NUMERIC
// and would emit "1,5" under a comma-decimal locale, corrupting every
// artifact the process writes. The fixed/general forms below produce the
// exact bytes "%.0f"/"%.17g" produce in the C locale, so goldens are stable.
void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no inf/nan; emit null like most tolerant serializers.
    out += "null";
    return;
  }
  char buf[40];
  // Integers within the exact-double range print without a fraction.
  const bool integral =
      value == std::floor(value) && std::abs(value) < 9.007199254740992e15;
  const auto result =
      integral ? std::to_chars(buf, buf + sizeof buf, value,
                               std::chars_format::fixed, 0)
               : std::to_chars(buf, buf + sizeof buf, value,
                               std::chars_format::general, 17);
  out.append(buf, result.ptr);
}

void serialize_impl(const Value& value, std::string& out, bool pretty,
                    int depth) {
  const auto newline_indent = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(d) * 2, ' ');
  };

  if (value.is_null()) {
    out += "null";
  } else if (value.is_bool()) {
    out += value.as_bool() ? "true" : "false";
  } else if (value.is_number()) {
    append_number(out, value.as_number());
  } else if (value.is_string()) {
    append_escaped(out, value.as_string());
  } else if (value.is_array()) {
    const Array& items = value.as_array();
    if (items.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != 0) out += ',';
      newline_indent(depth + 1);
      serialize_impl(items[i], out, pretty, depth + 1);
    }
    newline_indent(depth);
    out += ']';
  } else {
    const Object& object = value.as_object();
    if (object.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [key, member] : object.entries()) {
      if (!first) out += ',';
      first = false;
      newline_indent(depth + 1);
      append_escaped(out, key);
      out += pretty ? ": " : ":";
      serialize_impl(member, out, pretty, depth + 1);
    }
    newline_indent(depth);
    out += '}';
  }
}

/// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  Parser(std::string_view text, std::size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  Expected<Value> run() {
    skip_whitespace();
    auto value = parse_value(0);
    if (!value) return value;
    skip_whitespace();
    if (pos_ != text_.size()) {
      return fail("trailing characters after document");
    }
    return value;
  }

 private:
  Error fail(std::string message) const {
    return Error{ErrorCode::kParseError,
                 message + " at offset " + std::to_string(pos_)};
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool consume(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Expected<Value> parse_value(std::size_t depth) {
    if (depth > max_depth_) return fail("nesting too deep");
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        auto text = parse_string();
        if (!text) return std::move(text).error();
        return Value{std::move(*text)};
      }
      case 't':
        if (consume("true")) return Value{true};
        return fail("invalid literal");
      case 'f':
        if (consume("false")) return Value{false};
        return fail("invalid literal");
      case 'n':
        if (consume("null")) return Value{nullptr};
        return fail("invalid literal");
      default: return parse_number();
    }
  }

  Expected<std::string> parse_string() {
    MOSAIC_ASSERT(peek() == '"');
    ++pos_;
    std::string out;
    while (true) {
      if (eof()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) return fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("invalid hex digit in \\u escape");
          }
          // Encode the BMP code point as UTF-8 (surrogate pairs are rare in
          // MOSAIC output; unpaired surrogates pass through as-is bytes).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return fail("invalid escape character");
      }
    }
  }

  /// strtod saturates out-of-range magnitudes instead of rejecting them
  /// (overflow to +-HUGE_VAL, underflow to +-0). std::from_chars reports
  /// them as errors with the value unmodified, so the saturation is redone
  /// here from a rough decimal-exponent estimate — it only has to separate
  /// ~1e+309 from ~1e-324, not be precise.
  static double saturate_out_of_range(std::string_view token) {
    const bool negative = !token.empty() && token.front() == '-';
    if (negative || (!token.empty() && token.front() == '+')) {
      token.remove_prefix(1);
    }
    long long estimate = 0;  // floor(log10(|value|)), roughly
    std::size_t i = 0;
    long long integer_digits = 0;
    bool leading = true;
    for (; i < token.size() && token[i] >= '0' && token[i] <= '9'; ++i) {
      if (leading && token[i] == '0') continue;
      leading = false;
      ++integer_digits;
    }
    if (integer_digits > 0) {
      estimate = integer_digits - 1;
    } else if (i < token.size() && token[i] == '.') {
      std::size_t j = i + 1;
      while (j < token.size() && token[j] == '0') ++j;
      estimate = -static_cast<long long>(j - i);
    }
    if (const auto e = token.find_first_of("eE");
        e != std::string_view::npos) {
      long long exponent = 0;
      (void)std::from_chars(token.data() + e + 1,
                            token.data() + token.size(), exponent);
      estimate += exponent;
    }
    const double magnitude =
        estimate >= 0 ? std::numeric_limits<double>::infinity() : 0.0;
    return negative ? -magnitude : magnitude;
  }

  Expected<Value> parse_number() {
    const std::size_t start = pos_;
    if (!eof() && (peek() == '-' || peek() == '+')) ++pos_;
    while (!eof() && ((peek() >= '0' && peek() <= '9') || peek() == '.' ||
                      peek() == 'e' || peek() == 'E' || peek() == '-' ||
                      peek() == '+')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    const std::string_view token = text_.substr(start, pos_ - start);
    // std::from_chars is locale-independent; strtod honors LC_NUMERIC and
    // under a comma-decimal locale stops at the '.' of "1.5", turning every
    // fractional number in the document into a parse error.
    const char* first = token.data();
    const char* const last = token.data() + token.size();
    if (first != last && *first == '+') ++first;  // strtod-compat leniency
    if (first == last) return fail("malformed number");
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ptr != last) return fail("malformed number");
    if (ec == std::errc::result_out_of_range) {
      value = saturate_out_of_range(token);
    } else if (ec != std::errc{}) {
      return fail("malformed number");
    }
    return Value{value};
  }

  Expected<Value> parse_array(std::size_t depth) {
    ++pos_;  // '['
    Array items;
    skip_whitespace();
    if (!eof() && peek() == ']') {
      ++pos_;
      return Value{std::move(items)};
    }
    while (true) {
      skip_whitespace();
      auto item = parse_value(depth + 1);
      if (!item) return item;
      items.push_back(std::move(*item));
      skip_whitespace();
      if (eof()) return fail("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') return Value{std::move(items)};
      if (c != ',') return fail("expected ',' or ']' in array");
    }
  }

  Expected<Value> parse_object(std::size_t depth) {
    ++pos_;  // '{'
    Object object;
    skip_whitespace();
    if (!eof() && peek() == '}') {
      ++pos_;
      return Value{std::move(object)};
    }
    while (true) {
      skip_whitespace();
      if (eof() || peek() != '"') return fail("expected object key");
      auto key = parse_string();
      if (!key) return std::move(key).error();
      skip_whitespace();
      if (eof() || text_[pos_++] != ':') return fail("expected ':'");
      skip_whitespace();
      auto member = parse_value(depth + 1);
      if (!member) return member;
      object.set(std::move(*key), std::move(*member));
      skip_whitespace();
      if (eof()) return fail("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') return Value{std::move(object)};
      if (c != ',') return fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t max_depth_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string serialize(const Value& value, bool pretty) {
  std::string out;
  serialize_impl(value, out, pretty, 0);
  if (pretty) out += '\n';
  return out;
}

Expected<Value> parse(std::string_view text, std::size_t max_depth) {
  return Parser{text, max_depth}.run();
}

Expected<Value> read_file(const std::string& path) {
  auto bytes = util::read_file(path);
  if (!bytes.has_value()) {
    return Error{ErrorCode::kIoError, std::move(bytes).error().message};
  }
  auto value = parse(std::string_view(
      reinterpret_cast<const char*>(bytes->data()), bytes->size()));
  if (!value.has_value()) {
    return Error{ErrorCode::kParseError, path + ": " + value.error().message};
  }
  return value;
}

}  // namespace mosaic::json
