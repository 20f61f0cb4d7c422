#include "sim/truth.hpp"

#include <sstream>

#include "json/json.hpp"
#include "json/reader.hpp"
#include "util/fs.hpp"

namespace mosaic::sim {

namespace {

json::Value truth_to_json(const TruthRecord& record) {
  json::Object out;
  out.set("app_key", record.app_key);
  out.set("job_id", record.job_id);
  out.set("archetype", record.archetype);
  out.set("ambiguous", record.ambiguous);
  json::Array categories;
  categories.reserve(record.categories.size());
  for (const std::string& name : record.categories) {
    categories.emplace_back(name);
  }
  out.set("categories", std::move(categories));
  return out;
}

/// Every member is optional (absent -> the struct default).
util::Expected<TruthRecord> truth_from_json(const json::Value& value) {
  const json::Reader r(value, "truth record");
  TruthRecord record;
  record.app_key = r.string("app_key", "");
  record.job_id = r.integer<std::uint64_t>("job_id", 0);
  record.archetype = r.string("archetype", "");
  record.ambiguous = r.boolean("ambiguous", false);
  record.categories = r.array("categories", json::Presence::kOptional)
                          .elements<std::string>();
  return r.finish(std::move(record));
}

}  // namespace

std::vector<TruthRecord> truth_records(
    const std::vector<LabeledTrace>& population) {
  std::vector<TruthRecord> records;
  records.reserve(population.size());
  for (const LabeledTrace& labeled : population) {
    if (labeled.corrupted) continue;  // corruption voids the planted truth
    TruthRecord record;
    record.app_key = labeled.trace.app_key();
    record.job_id = labeled.trace.meta.job_id;
    record.archetype = labeled.archetype;
    record.ambiguous = labeled.truth.ambiguous;
    record.categories = labeled.truth.categories.names();
    records.push_back(std::move(record));
  }
  return records;
}

util::Status write_truth_jsonl(const std::vector<TruthRecord>& records,
                               const std::string& path) {
  std::ostringstream out;
  for (const TruthRecord& record : records) {
    out << json::serialize(truth_to_json(record), /*pretty=*/false) << '\n';
  }
  return util::write_file_atomic(path, out.str());
}

util::Expected<std::vector<TruthRecord>> read_truth_jsonl(
    const std::string& path) {
  return json::read_jsonl(path, truth_from_json);
}

}  // namespace mosaic::sim
