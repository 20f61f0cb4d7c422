#include "dist/journal.hpp"

#include <optional>

#include "json/json.hpp"
#include "json/reader.hpp"
#include "util/jsonl.hpp"

namespace mosaic::dist {

namespace {

/// Parses one journal line; nullopt for anything malformed or incomplete
/// (most commonly the torn final line of a killed manager).
std::optional<JournaledTask> entry_from_line(std::string_view line) {
  const auto parsed = json::parse(line);
  if (!parsed.has_value()) return std::nullopt;
  const json::Reader r(*parsed, "dispatch journal");
  JournaledTask entry;
  entry.shard = r.integer<std::size_t>("shard");
  entry.shard_count = r.integer<std::size_t>("count");
  entry.status = r.string("status");
  entry.worker = r.string("worker");
  entry.attempts = r.integer<std::size_t>("attempts");
  entry.partial_path = r.string("partial", "");
  entry.error = r.string("error", "");
  // A done entry without its artifact is useless.
  const bool done = entry.status == "done";
  if (!r.ok() || entry.shard >= entry.shard_count ||
      (!done && entry.status != "quarantined") ||
      (done && entry.partial_path.empty())) {
    return std::nullopt;
  }
  return entry;
}

}  // namespace

std::string dispatch_journal_line(const JournaledTask& entry) {
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

util::Expected<std::map<std::size_t, JournaledTask>>
load_dispatch_journal(const std::string& path, std::size_t* dropped_lines) {
  std::map<std::size_t, JournaledTask> entries;
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
