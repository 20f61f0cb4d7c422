#include "ingest/journal.hpp"

#include <optional>

#include "json/json.hpp"
#include "json/reader.hpp"
#include "util/jsonl.hpp"
#include "util/strings.hpp"

namespace mosaic::ingest {

namespace {

/// Parses one journal line; nullopt for anything malformed or incomplete
/// (most commonly the torn final line of a killed run).
std::optional<JournalEntry> entry_from_line(std::string_view line) {
  const auto parsed = json::parse(line);
  if (!parsed.has_value()) return std::nullopt;
  const json::Reader r(*parsed, "ingest journal");
  JournalEntry entry;
  entry.digest.path = r.string("path");
  const std::string_view outcome = r.string("outcome");
  entry.valid = outcome == "valid";
  if (entry.valid) {
    entry.digest.app_key = r.string("app");
    const auto bytes = util::parse_uint(r.string("bytes"));
    const auto job = util::parse_uint(r.string("job"));
    if (!bytes || !job) return std::nullopt;
    entry.digest.total_bytes = *bytes;
    entry.digest.job_id = *job;
  } else if (outcome == "evicted") {
    entry.code = r.string("code");
    entry.corruption_kind = r.string("kind", "");
  } else {
    return std::nullopt;
  }
  if (!r.ok()) return std::nullopt;
  return entry;
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
