#include "dist/journal.hpp"

#include <optional>

#include "json/json.hpp"
#include "util/jsonl.hpp"

namespace mosaic::dist {

namespace {

/// Parses one journal line; nullopt for anything malformed or incomplete
/// (most commonly the torn final line of a killed manager).
std::optional<DispatchJournalEntry> entry_from_line(std::string_view line) {
  const auto parsed = json::parse(line);
  if (!parsed.has_value() || !parsed->is_object()) return std::nullopt;
  const json::Object& obj = parsed->as_object();

  const auto get_string = [&obj](std::string_view key)
      -> std::optional<std::string> {
    const json::Value* value = obj.find(key);
    if (value == nullptr || !value->is_string()) return std::nullopt;
    return value->as_string();
  };
  const auto get_count = [&obj](std::string_view key)
      -> std::optional<std::size_t> {
    const json::Value* value = obj.find(key);
    if (value == nullptr || !value->is_number()) return std::nullopt;
    const double number = value->as_number();
    if (number < 0.0) return std::nullopt;
    return static_cast<std::size_t>(number);
  };

  DispatchJournalEntry entry;
  const auto shard = get_count("shard");
  const auto count = get_count("count");
  const auto status = get_string("status");
  const auto worker = get_string("worker");
  const auto attempts = get_count("attempts");
  if (!shard || !count || !status || !worker || !attempts) return std::nullopt;
  if (*status != "done" && *status != "quarantined") return std::nullopt;
  if (*count == 0 || *shard >= *count) return std::nullopt;
  entry.shard = *shard;
  entry.shard_count = *count;
  entry.status = *status;
  entry.worker = *worker;
  entry.attempts = *attempts;
  if (const auto partial = get_string("partial")) {
    entry.partial_path = *partial;
  }
  if (const auto error = get_string("error")) entry.error = *error;
  if (entry.status == "done" && entry.partial_path.empty()) {
    return std::nullopt;  // a done entry without its artifact is useless
  }
  return entry;
}

}  // namespace

std::string dispatch_journal_line(const DispatchJournalEntry& entry) {
  json::Object out;
  out.set("shard", entry.shard);
  out.set("count", entry.shard_count);
  out.set("status", entry.status);
  out.set("worker", entry.worker);
  out.set("attempts", entry.attempts);
  if (!entry.partial_path.empty()) out.set("partial", entry.partial_path);
  if (!entry.error.empty()) out.set("error", entry.error);
  return json::serialize(json::Value(std::move(out)), /*pretty=*/false);
}

util::Expected<std::map<std::size_t, DispatchJournalEntry>>
load_dispatch_journal(const std::string& path, std::size_t* dropped_lines) {
  std::map<std::size_t, DispatchJournalEntry> entries;
  const util::Status status = util::read_journal_lines(
      path,
      [&entries](std::string_view line) {
        auto entry = entry_from_line(line);
        if (!entry) return false;
        entries[entry->shard] = std::move(*entry);
        return true;
      },
      dropped_lines);
  if (!status.ok()) return status.error();
  return entries;
}

}  // namespace mosaic::dist
