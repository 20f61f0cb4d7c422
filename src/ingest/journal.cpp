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
std::optional<core::FileOutcome> outcome_from_line(std::string_view line) {
  const auto parsed = json::parse(line);
  if (!parsed.has_value()) return std::nullopt;
  const json::Reader r(*parsed, "ingest journal");
  core::FileOutcome outcome;
  outcome.path = r.string("path");
  const std::string_view status = r.string("outcome");
  if (status == "valid") {
    outcome.app_key = r.string("app");
    const auto bytes = util::parse_uint(r.string("bytes"));
    const auto job = util::parse_uint(r.string("job"));
    if (!bytes || !job) return std::nullopt;
    outcome.total_bytes = *bytes;
    outcome.job_id = *job;
  } else if (status == "evicted") {
    const auto code = util::error_code_from_name(r.string("code"));
    if (!code) return std::nullopt;
    outcome.error = util::Error{*code, ""};
    if (const std::string_view name = r.string("kind", ""); !name.empty()) {
      const auto corruption = trace::corruption_kind_from_name(name);
      if (!corruption || *corruption == trace::CorruptionKind::kNone) {
        return std::nullopt;
      }
      outcome.corruption = *corruption;
    }
  } else {
    return std::nullopt;
  }
  if (!r.ok()) return std::nullopt;
  return outcome;
}

}  // namespace

std::string journal_line(const core::FileOutcome& outcome) {
  json::Object out;
  out.set("path", outcome.path);
  out.set("outcome", outcome.valid() ? "valid" : "evicted");
  if (outcome.valid()) {
    out.set("app", outcome.app_key);
    out.set("bytes", std::to_string(outcome.total_bytes));
    out.set("job", std::to_string(outcome.job_id));
  } else {
    out.set("code", util::error_code_name(outcome.error->code));
    if (outcome.corruption != trace::CorruptionKind::kNone) {
      out.set("kind", trace::corruption_kind_name(outcome.corruption));
    }
  }
  return json::serialize(json::Value(std::move(out)), /*pretty=*/false);
}

util::Expected<std::map<std::string, core::FileOutcome>> load_journal(
    const std::string& path, std::size_t* dropped_lines) {
  std::map<std::string, core::FileOutcome> outcomes;
  const util::Status status = util::read_journal_lines(
      path,
      [&outcomes](std::string_view line) {
        auto outcome = outcome_from_line(line);
        if (!outcome) return false;
        outcomes[outcome->path] = std::move(*outcome);
        return true;
      },
      dropped_lines);
  if (!status.ok()) return status.error();
  return outcomes;
}

}  // namespace mosaic::ingest
