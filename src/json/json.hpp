// Self-contained JSON value model, parser and serializer.
//
// MOSAIC persists per-trace categorization results and aggregate statistics
// as JSON (paper §III-B4). The model is a tagged union over null/bool/
// number/string/array/object; objects preserve insertion order so emitted
// reports are stable and diffable.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/error.hpp"
#include "util/jsonl.hpp"

namespace mosaic::json {

class Value;

/// Ordered object: keeps keys in insertion order (stable report output),
/// with O(log n) lookup through a side index.
class Object {
 public:
  /// Inserts or overwrites `key`.
  void set(std::string key, Value value);

  /// Pointer to the member or nullptr.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;
  [[nodiscard]] Value* find(std::string_view key) noexcept;

  [[nodiscard]] bool contains(std::string_view key) const noexcept {
    return find(key) != nullptr;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Insertion-ordered members.
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& entries()
      const noexcept {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, Value>> entries_;
  std::map<std::string, std::size_t, std::less<>> index_;
};

using Array = std::vector<Value>;

/// A JSON value. Numbers are stored as double; integers up to 2^53 round-trip
/// exactly, which covers every counter MOSAIC emits.
class Value {
 public:
  Value() : data_(nullptr) {}                       ///< null
  /* implicit */ Value(std::nullptr_t) : data_(nullptr) {}
  /* implicit */ Value(bool b) : data_(b) {}
  /* implicit */ Value(double d) : data_(d) {}
  /* implicit */ Value(int i) : data_(static_cast<double>(i)) {}
  /* implicit */ Value(std::int64_t i) : data_(static_cast<double>(i)) {}
  /* implicit */ Value(std::uint64_t u) : data_(static_cast<double>(u)) {}
  /* implicit */ Value(const char* s) : data_(std::string(s)) {}
  /* implicit */ Value(std::string s) : data_(std::move(s)) {}
  /* implicit */ Value(std::string_view s) : data_(std::string(s)) {}
  /* implicit */ Value(Object o) : data_(std::move(o)) {}
  /* implicit */ Value(Array a) : data_(std::move(a)) {}

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(data_);
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return std::holds_alternative<bool>(data_);
  }
  [[nodiscard]] bool is_number() const noexcept {
    return std::holds_alternative<double>(data_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(data_);
  }
  [[nodiscard]] bool is_array() const noexcept {
    return std::holds_alternative<Array>(data_);
  }
  [[nodiscard]] bool is_object() const noexcept {
    return std::holds_alternative<Object>(data_);
  }

  /// Typed accessors; preconditions checked with MOSAIC_ASSERT.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Object& as_object();

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// Serializes with 2-space indentation and '\n' line ends.
[[nodiscard]] std::string serialize(const Value& value, bool pretty = true);

/// Parses a complete JSON document. Trailing non-whitespace is an error.
/// Depth is limited (default 256) to bound stack use on hostile input.
[[nodiscard]] util::Expected<Value> parse(std::string_view text,
                                          std::size_t max_depth = 256);

/// Reads and parses the document at `path`. An unreadable file is kIoError
/// and malformed text kParseError, both naming the path.
[[nodiscard]] util::Expected<Value> read_file(const std::string& path);

/// Reads a JSON Lines file strictly (util::read_lines): every non-blank line
/// must parse and `decode`, or the read fails naming "<path>:<line>".
template <typename T>
[[nodiscard]] util::Expected<std::vector<T>> read_jsonl(
    const std::string& path, util::Expected<T> (*decode)(const Value&)) {
  std::vector<T> records;
  const util::Status status =
      util::read_lines(path, [&](std::string_view line) -> util::Status {
        auto value = parse(line);
        if (!value.has_value()) return std::move(value).error();
        auto record = decode(*value);
        if (!record.has_value()) return std::move(record).error();
        records.push_back(std::move(*record));
        return util::Status::success();
      });
  if (!status.ok()) return status.error();
  return records;
}

}  // namespace mosaic::json
