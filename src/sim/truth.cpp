#include "sim/truth.hpp"

#include <sstream>

#include "json/json.hpp"
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

util::Expected<TruthRecord> truth_from_json(const json::Value& value) {
  if (!value.is_object()) {
    return util::Error(util::ErrorCode::kParseError,
                       "truth record must be a JSON object");
  }
  const json::Object& object = value.as_object();
  TruthRecord record;
  if (const json::Value* v = object.find("app_key");
      v != nullptr && v->is_string()) {
    record.app_key = v->as_string();
  }
  if (const json::Value* v = object.find("job_id");
      v != nullptr && v->is_number()) {
    record.job_id = static_cast<std::uint64_t>(v->as_number());
  }
  if (const json::Value* v = object.find("archetype");
      v != nullptr && v->is_string()) {
    record.archetype = v->as_string();
  }
  if (const json::Value* v = object.find("ambiguous");
      v != nullptr && v->is_bool()) {
    record.ambiguous = v->as_bool();
  }
  if (const json::Value* v = object.find("categories");
      v != nullptr && v->is_array()) {
    for (const json::Value& item : v->as_array()) {
      if (!item.is_string()) {
        return util::Error(util::ErrorCode::kParseError,
                           "truth categories must be strings");
      }
      record.categories.push_back(item.as_string());
    }
  }
  return record;
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
