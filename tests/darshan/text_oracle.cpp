#include "text_oracle.hpp"

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "util/strings.hpp"

namespace mosaic::darshan::oracle {

using trace::FileRecord;
using trace::Trace;
using util::Error;
using util::ErrorCode;
using util::Expected;

namespace {

bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

/// Splits on runs of ASCII whitespace; never yields empty fields.
std::vector<std::string_view> split_whitespace(std::string_view text) {
  std::vector<std::string_view> fields;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) ++i;
    const std::size_t start = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    if (i > start) fields.push_back(text.substr(start, i - start));
  }
  return fields;
}

enum class Counter {
  kOpens,
  kCloses,
  kSeeks,
  kReads,
  kWrites,
  kBytesRead,
  kBytesWritten,
  kOpenStart,
  kCloseEnd,
  kReadStart,
  kReadEnd,
  kWriteStart,
  kWriteEnd,
};

bool is_timestamp(Counter counter) { return counter >= Counter::kOpenStart; }

struct CounterSpec {
  Counter counter;
  bool additive = false;
};

const std::map<std::string_view, CounterSpec>& counter_table() {
  static const std::map<std::string_view, CounterSpec> table{
      {"POSIX_OPENS", {Counter::kOpens}},
      {"POSIX_CLOSES", {Counter::kCloses}},
      {"POSIX_SEEKS", {Counter::kSeeks}},
      {"POSIX_READS", {Counter::kReads}},
      {"POSIX_WRITES", {Counter::kWrites}},
      {"POSIX_BYTES_READ", {Counter::kBytesRead}},
      {"POSIX_BYTES_WRITTEN", {Counter::kBytesWritten}},
      {"POSIX_F_OPEN_START_TIMESTAMP", {Counter::kOpenStart}},
      {"POSIX_F_CLOSE_END_TIMESTAMP", {Counter::kCloseEnd}},
      {"POSIX_F_READ_START_TIMESTAMP", {Counter::kReadStart}},
      {"POSIX_F_READ_END_TIMESTAMP", {Counter::kReadEnd}},
      {"POSIX_F_WRITE_START_TIMESTAMP", {Counter::kWriteStart}},
      {"POSIX_F_WRITE_END_TIMESTAMP", {Counter::kWriteEnd}},
      {"MPIIO_INDEP_OPENS", {Counter::kOpens, true}},
      {"MPIIO_COLL_OPENS", {Counter::kOpens, true}},
      {"MPIIO_INDEP_READS", {Counter::kReads, true}},
      {"MPIIO_COLL_READS", {Counter::kReads, true}},
      {"MPIIO_INDEP_WRITES", {Counter::kWrites, true}},
      {"MPIIO_COLL_WRITES", {Counter::kWrites, true}},
      {"MPIIO_BYTES_READ", {Counter::kBytesRead}},
      {"MPIIO_BYTES_WRITTEN", {Counter::kBytesWritten}},
      {"MPIIO_F_OPEN_START_TIMESTAMP", {Counter::kOpenStart}},
      {"MPIIO_F_CLOSE_END_TIMESTAMP", {Counter::kCloseEnd}},
      {"MPIIO_F_READ_START_TIMESTAMP", {Counter::kReadStart}},
      {"MPIIO_F_READ_END_TIMESTAMP", {Counter::kReadEnd}},
      {"MPIIO_F_WRITE_START_TIMESTAMP", {Counter::kWriteStart}},
      {"MPIIO_F_WRITE_END_TIMESTAMP", {Counter::kWriteEnd}},
      {"STDIO_OPENS", {Counter::kOpens}},
      {"STDIO_SEEKS", {Counter::kSeeks}},
      {"STDIO_READS", {Counter::kReads}},
      {"STDIO_WRITES", {Counter::kWrites}},
      {"STDIO_BYTES_READ", {Counter::kBytesRead}},
      {"STDIO_BYTES_WRITTEN", {Counter::kBytesWritten}},
      {"STDIO_F_OPEN_START_TIMESTAMP", {Counter::kOpenStart}},
      {"STDIO_F_CLOSE_END_TIMESTAMP", {Counter::kCloseEnd}},
      {"STDIO_F_READ_START_TIMESTAMP", {Counter::kReadStart}},
      {"STDIO_F_READ_END_TIMESTAMP", {Counter::kReadEnd}},
      {"STDIO_F_WRITE_START_TIMESTAMP", {Counter::kWriteStart}},
      {"STDIO_F_WRITE_END_TIMESTAMP", {Counter::kWriteEnd}},
  };
  return table;
}

void apply_counter(FileRecord& record, const CounterSpec& spec, double value) {
  const auto as_u64 = [value] {
    return value < 0.0 ? 0ull : static_cast<std::uint64_t>(value);
  };
  const auto set_or_add = [&](std::uint64_t& member) {
    member = spec.additive ? member + as_u64() : as_u64();
  };
  switch (spec.counter) {
    case Counter::kOpens: set_or_add(record.opens); break;
    case Counter::kCloses: set_or_add(record.closes); break;
    case Counter::kSeeks: set_or_add(record.seeks); break;
    case Counter::kReads: set_or_add(record.reads); break;
    case Counter::kWrites: set_or_add(record.writes); break;
    case Counter::kBytesRead: set_or_add(record.bytes_read); break;
    case Counter::kBytesWritten: set_or_add(record.bytes_written); break;
    case Counter::kOpenStart: record.open_ts = value; break;
    case Counter::kCloseEnd: record.close_ts = value; break;
    case Counter::kReadStart: record.first_read_ts = value; break;
    case Counter::kReadEnd: record.last_read_ts = value; break;
    case Counter::kWriteStart: record.first_write_ts = value; break;
    case Counter::kWriteEnd: record.last_write_ts = value; break;
  }
}

bool apply_header(Trace& out, std::string_view key, std::string_view value) {
  using util::parse_double;
  using util::parse_uint;
  if (key == "exe") {
    const auto fields = split_whitespace(value);
    if (!fields.empty()) {
      std::string_view exe = fields.front();
      if (const auto slash = exe.rfind('/'); slash != std::string_view::npos) {
        exe = exe.substr(slash + 1);
      }
      out.meta.app_name = std::string(exe);
    }
  } else if (key == "uid") {
    out.meta.user = std::string(value);
  } else if (key == "jobid") {
    if (const auto v = parse_uint(value)) out.meta.job_id = *v;
  } else if (key == "nprocs") {
    // A count past uint32_t, even past uint64_t (all digits, yet no
    // parse_uint value), does not fit; anything else unparseable is ignored.
    const auto v = parse_uint(value);
    const bool all_digits =
        !value.empty() &&
        value.find_first_not_of("0123456789") == std::string_view::npos;
    if (v ? *v > std::numeric_limits<std::uint32_t>::max() : all_digits) {
      return false;
    }
    if (v) out.meta.nprocs = static_cast<std::uint32_t>(*v);
  } else if (key == "start_time") {
    if (const auto v = parse_double(value)) out.meta.start_time = *v;
  } else if (key == "run time" || key == "run_time") {
    if (const auto v = parse_double(value)) out.meta.run_time = *v;
  }
  return true;
}

Error bad_numeric_field(std::size_t line_number) {
  return Error{ErrorCode::kParseError,
               "line " + std::to_string(line_number) + ": bad numeric field"};
}

}  // namespace

Expected<Trace> parse_text(std::string_view text,
                           const util::Deadline& deadline) {
  constexpr std::size_t kDeadlineCheckInterval = 4096;
  Trace out;
  std::map<std::tuple<std::string, std::uint64_t, std::int32_t>, std::size_t>
      record_index;
  std::vector<std::string> record_module;

  std::size_t line_number = 0;
  std::size_t cursor = 0;
  while (cursor <= text.size()) {
    const std::size_t eol = text.find('\n', cursor);
    const std::string_view line =
        text.substr(cursor, eol == std::string_view::npos ? std::string_view::npos
                                                          : eol - cursor);
    cursor = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_number;
    if (line_number % kDeadlineCheckInterval == 0 && deadline.expired()) {
      return Error{ErrorCode::kTimeout,
                   "parse deadline exceeded at line " +
                       std::to_string(line_number)};
    }

    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty()) continue;

    if (trimmed.front() == '#') {
      const std::string_view body = util::trim(trimmed.substr(1));
      if (const auto colon = body.find(':'); colon != std::string_view::npos) {
        if (!apply_header(out, util::trim(body.substr(0, colon)),
                          util::trim(body.substr(colon + 1)))) {
          return bad_numeric_field(line_number);
        }
      }
      continue;
    }

    const auto fields = split_whitespace(trimmed);
    if (fields.size() < 5) {
      return Error{ErrorCode::kParseError,
                   "line " + std::to_string(line_number) +
                       ": expected >=5 fields, got " +
                       std::to_string(fields.size())};
    }
    const std::string_view module = fields[0];
    if (module != "POSIX" && module != "MPI-IO" && module != "MPIIO" &&
        module != "STDIO") {
      continue;
    }

    const auto rank = util::parse_int(fields[1]);
    const auto record_id = util::parse_uint(fields[2]);
    const auto value = util::parse_double(fields[4]);
    // A rank outside int32_t would merge into another rank's record.
    if (!rank || !record_id || !value ||
        *rank < std::numeric_limits<std::int32_t>::min() ||
        *rank > std::numeric_limits<std::int32_t>::max()) {
      return bad_numeric_field(line_number);
    }
    const auto counter_it = counter_table().find(fields[3]);
    if (counter_it == counter_table().end()) continue;
    // A count is stored as uint64_t: NaN, inf and 2^64 or more do not fit.
    // Negative counts clamp to 0; timestamps keep any value.
    if (!is_timestamp(counter_it->second.counter) && !(*value < 0x1p64)) {
      return bad_numeric_field(line_number);
    }

    const std::string module_key = module == "MPI-IO" ? "MPIIO"
                                                      : std::string(module);
    const auto key = std::make_tuple(module_key, *record_id,
                                     static_cast<std::int32_t>(*rank));
    auto [slot, inserted] = record_index.try_emplace(key, out.files.size());
    if (inserted) {
      FileRecord record;
      record.file_id = *record_id;
      record.rank = static_cast<std::int32_t>(*rank);
      if (fields.size() >= 6) record.file_name = std::string(fields[5]);
      out.files.push_back(std::move(record));
      record_module.push_back(module_key);
    }
    apply_counter(out.files[slot->second], counter_it->second, *value);
  }

  if (out.meta.run_time <= 0.0) {
    return Error{ErrorCode::kParseError, "missing or invalid 'run time' header"};
  }

  {
    std::set<std::pair<std::uint64_t, std::int32_t>> mpiio_keys;
    for (std::size_t i = 0; i < out.files.size(); ++i) {
      if (record_module[i] == "MPIIO") {
        mpiio_keys.emplace(out.files[i].file_id, out.files[i].rank);
      }
    }
    if (!mpiio_keys.empty()) {
      std::vector<FileRecord> kept;
      kept.reserve(out.files.size());
      for (std::size_t i = 0; i < out.files.size(); ++i) {
        if (record_module[i] == "POSIX" &&
            mpiio_keys.contains({out.files[i].file_id, out.files[i].rank})) {
          continue;
        }
        kept.push_back(std::move(out.files[i]));
      }
      out.files = std::move(kept);
    }
  }

  for (auto& record : out.files) {
    if (record.closes == 0) record.closes = record.opens;
  }
  return out;
}

}  // namespace mosaic::darshan::oracle
