#include "ingest/journal.hpp"

#include <optional>

#include "json/json.hpp"
#include "util/jsonl.hpp"
#include "util/strings.hpp"

namespace mosaic::ingest {

namespace {

/// Parses one journal line; nullopt for anything malformed or incomplete
/// (most commonly the torn final line of a killed run).
std::optional<JournalEntry> entry_from_line(std::string_view line) {
  const auto parsed = json::parse(line);
  if (!parsed.has_value() || !parsed->is_object()) return std::nullopt;
  const json::Object& obj = parsed->as_object();

  const auto get_string = [&obj](std::string_view key)
      -> std::optional<std::string> {
    const json::Value* value = obj.find(key);
    if (value == nullptr || !value->is_string()) return std::nullopt;
    return value->as_string();
  };

  JournalEntry entry;
  const auto path = get_string("path");
  const auto outcome = get_string("outcome");
  if (!path || !outcome) return std::nullopt;
  entry.digest.path = *path;

  if (*outcome == "valid") {
    entry.valid = true;
    const auto app = get_string("app");
    const auto bytes = get_string("bytes");
    const auto job = get_string("job");
    if (!app || !bytes || !job) return std::nullopt;
    const auto bytes_value = util::parse_uint(*bytes);
    const auto job_value = util::parse_uint(*job);
    if (!bytes_value || !job_value) return std::nullopt;
    entry.digest.app_key = *app;
    entry.digest.total_bytes = *bytes_value;
    entry.digest.job_id = *job_value;
    return entry;
  }
  if (*outcome == "evicted") {
    const auto code = get_string("code");
    if (!code) return std::nullopt;
    entry.code = *code;
    if (const auto kind = get_string("kind")) entry.corruption_kind = *kind;
    return entry;
  }
  return std::nullopt;
}

}  // namespace

std::string journal_line(const JournalEntry& entry) {
  json::Object out;
  out.set("path", entry.digest.path);
  out.set("outcome", entry.valid ? "valid" : "evicted");
  if (entry.valid) {
    out.set("app", entry.digest.app_key);
    out.set("bytes", std::to_string(entry.digest.total_bytes));
    out.set("job", std::to_string(entry.digest.job_id));
  } else {
    out.set("code", entry.code);
    if (!entry.corruption_kind.empty()) {
      out.set("kind", entry.corruption_kind);
    }
  }
  return json::serialize(json::Value(std::move(out)), /*pretty=*/false);
}

util::Expected<std::map<std::string, JournalEntry>> load_journal(
    const std::string& path, std::size_t* dropped_lines) {
  std::map<std::string, JournalEntry> entries;
  const util::Status status = util::read_journal_lines(
      path,
      [&entries](std::string_view line) {
        auto entry = entry_from_line(line);
        if (!entry) return false;
        entries[entry->digest.path] = std::move(*entry);
        return true;
      },
      dropped_lines);
  if (!status.ok()) return status.error();
  return entries;
}

}  // namespace mosaic::ingest
