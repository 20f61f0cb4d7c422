// Typed member reader: the one way MOSAIC decodes JSON it did not build in
// this process — trace results, shard partials, resume journals, MDP1
// payloads, telemetry riders, rules, thresholds, provenance and truth.
//
// A Reader wraps one object (or, as a child, one array) and hands out its
// members by type. Every accessor comes in two forms:
//   - required  (`r.string("app")`): a missing member is an error;
//   - optional  (`r.string("kind", "")`): a missing member is the default.
// In both forms a member that is present with the wrong type, a number that
// is not finite, or an integer member that is fractional or outside the
// target type's range is an error. The first error wins: later calls
// return defaults, so a decoder reads everything and checks ok() once.
// Errors are kParseError, prefixed with the reader's context and naming the
// key, and are only formatted on failure.
//
// Child readers (object(), array()) share their root's error state, so the
// root must outlive them; they point into the decoded Value, which must
// outlive every reader over it.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "json/json.hpp"
#include "util/error.hpp"

namespace mosaic::json {

/// Whether an absent object or array member is an error or reads as empty.
enum class Presence : bool { kRequired, kOptional };

class Reader {
 public:
  /// A member name (object readers) or an element index (array readers).
  /// Names are views, and a child reader keeps its own for error messages,
  /// so the string must outlive the reader. Literals bind by array
  /// reference, so an index of 0 is never taken for a null name.
  struct Key {
    static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
    template <std::size_t N>
    /* implicit */ Key(const char (&member)[N]) : name(member, N - 1) {}
    /* implicit */ Key(std::string_view member) : name(member) {}
    /* implicit */ Key(const std::string& member) : name(member) {}
    /* implicit */ Key(std::size_t element) : index(element) {}
    Key(std::string_view member, std::size_t element)
        : name(member), index(element) {}

    std::string_view name;
    std::size_t index = kNoIndex;
  };

  /// Reads the object `value`; anything else is the first error. `context`
  /// prefixes every error ("partial artifact", "protocol: task payload").
  Reader(const Value& value, std::string_view context);

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  [[nodiscard]] std::string_view string(Key key) const;
  [[nodiscard]] std::string_view string(Key key,
                                        std::string_view fallback) const;
  [[nodiscard]] double number(Key key) const;
  [[nodiscard]] double number(Key key, double fallback) const;
  [[nodiscard]] bool boolean(Key key) const;
  [[nodiscard]] bool boolean(Key key, bool fallback) const;

  template <typename T>
  [[nodiscard]] T integer(Key key) const {
    return integer_or(key, std::optional<T>());
  }
  template <typename T>
  [[nodiscard]] T integer(Key key, T fallback) const {
    return integer_or(key, std::optional<T>(fallback));
  }

  /// Child readers; an absent kOptional member reads as empty, so every
  /// optional accessor on it returns its default.
  [[nodiscard]] Reader object(Key key,
                              Presence presence = Presence::kRequired) const;
  [[nodiscard]] Reader array(Key key,
                             Presence presence = Presence::kRequired) const;

  /// Every element of this array reader, through the accessor for T
  /// (std::string, double or an integer type).
  template <typename T>
  [[nodiscard]] std::vector<T> elements() const {
    std::vector<T> out;
    out.reserve(size());
    for (std::size_t i = 0; i < size() && ok(); ++i) {
      if constexpr (std::is_same_v<T, std::string>) {
        out.emplace_back(string(i));
      } else if constexpr (std::is_same_v<T, double>) {
        out.push_back(number(i));
      } else {
        out.push_back(integer<T>(i));
      }
    }
    return out;
  }

  /// Elements of an array reader (0 for objects and absent members).
  [[nodiscard]] std::size_t size() const noexcept;
  /// Members of an object reader in document order (empty otherwise), for
  /// documents keyed by data (metric names, threshold keys).
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& members()
      const noexcept;
  /// The raw member, or nullptr; never an error.
  [[nodiscard]] const Value* find(Key key) const noexcept;
  [[nodiscard]] bool has(Key key) const noexcept {
    return find(key) != nullptr;
  }

  /// Records "<context>: '<key>' <problem>" unless an error is already set.
  void fail(Key key, std::string_view problem) const;

  [[nodiscard]] bool ok() const noexcept { return !state_->error.has_value(); }
  /// The first error. Precondition: !ok().
  [[nodiscard]] const util::Error& error() const { return *state_->error; }
  /// `value` when every read succeeded, the first error otherwise.
  template <typename T>
  [[nodiscard]] util::Expected<T> finish(T value) const {
    if (!ok()) return error();
    return value;
  }

 private:
  struct State {
    std::string_view context;
    std::optional<util::Error> error;
  };

  Reader(State* state, Key where, const Value* value, bool is_object);

  /// The member at `key` when present and of the wanted type; nullptr
  /// (recording an error unless absent-and-optional) otherwise.
  const Value* get(Key key, bool optional, bool (Value::*is_type)() const,
                   std::string_view type_name) const;
  Reader child(Key key, Presence presence, bool is_object) const;
  double number_or(Key key, bool optional, double fallback) const;
  void fail_range(Key key, double value, std::string range) const;

  template <typename T>
  T integer_or(Key key, std::optional<T> fallback) const {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    const Value* value =
        get(key, fallback.has_value(), &Value::is_number, "a number");
    if (value == nullptr) return fallback.value_or(T{});
    // Both bounds are powers of two (or zero), so exact as doubles; NaN and
    // infinities fail the comparisons.
    using Limits = std::numeric_limits<T>;
    constexpr double kMin = static_cast<double>(Limits::min());
    constexpr double kEnd = 2.0 * static_cast<double>(Limits::max() / 2 + 1);
    const double number = value->as_number();
    if (number >= kMin && number < kEnd && number == std::trunc(number)) {
      return static_cast<T>(number);
    }
    fail_range(key, number,
               "[" + std::to_string(Limits::min()) + ", " +
                   std::to_string(Limits::max()) + "]");
    return fallback.value_or(T{});
  }

  State own_;
  State* state_;
  Key where_;  ///< this reader's key in its parent, for error paths
  const Object* object_ = nullptr;
  const Array* array_ = nullptr;
};

}  // namespace mosaic::json
