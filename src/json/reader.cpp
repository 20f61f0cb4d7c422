#include "json/reader.hpp"

#include <charconv>

namespace mosaic::json {

namespace {

const std::vector<std::pair<std::string, Value>> kNoMembers;

/// "traces[3].dedup": where a reader sits, then the key read from it.
std::string key_path(Reader::Key where, Reader::Key key) {
  std::string out(where.name);
  if (where.index != Reader::Key::kNoIndex) {
    out += '[' + std::to_string(where.index) + ']';
  }
  if (key.index != Reader::Key::kNoIndex) {
    out += '[' + std::to_string(key.index) + ']';
  } else {
    if (!out.empty()) out += '.';
    out += key.name;
  }
  return out;
}

}  // namespace

Reader::Reader(const Value& value, std::string_view context)
    : state_(&own_), where_(std::string_view()) {
  own_.context = context;
  if (value.is_object()) {
    object_ = &value.as_object();
  } else {
    own_.error = util::Error{util::ErrorCode::kParseError,
                             std::string(context) + ": not a JSON object"};
  }
}

Reader::Reader(State* state, Key where, const Value* value, bool is_object)
    : state_(state), where_(where) {
  if (value == nullptr) return;
  if (is_object) {
    object_ = &value->as_object();
  } else {
    array_ = &value->as_array();
  }
}

const Value* Reader::find(Key key) const noexcept {
  if (key.index == Key::kNoIndex) {
    return object_ != nullptr ? object_->find(key.name) : nullptr;
  }
  return array_ != nullptr && key.index < array_->size()
             ? &(*array_)[key.index]
             : nullptr;
}

std::size_t Reader::size() const noexcept {
  return array_ != nullptr ? array_->size() : 0;
}

const std::vector<std::pair<std::string, Value>>& Reader::members()
    const noexcept {
  return object_ != nullptr ? object_->entries() : kNoMembers;
}

void Reader::fail(Key key, std::string_view problem) const {
  if (!ok()) return;
  std::string message(state_->context);
  message += ": '";
  message += key_path(where_, key);
  message += "' ";
  message += problem;
  state_->error = util::Error{util::ErrorCode::kParseError, std::move(message)};
}

void Reader::fail_range(Key key, double value, std::string range) const {
  char text[32];
  const auto end = std::to_chars(text, text + sizeof text, value).ptr;
  fail(key, "= " + std::string(text, end) + " is not an integer in " +
                std::move(range));
}

const Value* Reader::get(Key key, bool optional, bool (Value::*is_type)() const,
                         std::string_view type_name) const {
  if (!ok()) return nullptr;
  const Value* value = find(key);
  if (value == nullptr) {
    if (!optional) fail(key, "is missing");
    return nullptr;
  }
  if (!(value->*is_type)()) {
    fail(key, "is not " + std::string(type_name));
    return nullptr;
  }
  return value;
}

std::string_view Reader::string(Key key) const {
  const Value* value = get(key, false, &Value::is_string, "a string");
  return value != nullptr ? std::string_view(value->as_string())
                          : std::string_view();
}

std::string_view Reader::string(Key key, std::string_view fallback) const {
  const Value* value = get(key, true, &Value::is_string, "a string");
  return value != nullptr ? std::string_view(value->as_string()) : fallback;
}

double Reader::number_or(Key key, bool optional, double fallback) const {
  const Value* value = get(key, optional, &Value::is_number, "a number");
  if (value == nullptr) return fallback;
  if (!std::isfinite(value->as_number())) {
    fail(key, "is not a finite number");
    return fallback;
  }
  return value->as_number();
}

double Reader::number(Key key) const { return number_or(key, false, 0.0); }

double Reader::number(Key key, double fallback) const {
  return number_or(key, true, fallback);
}

bool Reader::boolean(Key key) const {
  const Value* value = get(key, false, &Value::is_bool, "a bool");
  return value != nullptr && value->as_bool();
}

bool Reader::boolean(Key key, bool fallback) const {
  const Value* value = get(key, true, &Value::is_bool, "a bool");
  return value != nullptr ? value->as_bool() : fallback;
}

Reader Reader::child(Key key, Presence presence, bool is_object) const {
  const Value* value =
      get(key, presence == Presence::kOptional,
          is_object ? &Value::is_object : &Value::is_array,
          is_object ? "an object" : "an array");
  // An element's children name it after its array: "traces[3].dedup".
  const Key where =
      key.index == Key::kNoIndex ? key : Key(where_.name, key.index);
  return Reader(state_, where, value, is_object);
}

Reader Reader::object(Key key, Presence presence) const {
  return child(key, presence, true);
}

Reader Reader::array(Key key, Presence presence) const {
  return child(key, presence, false);
}

}  // namespace mosaic::json
