#include "darshan/text_format.hpp"

#include <cinttypes>
#include <set>
#include <tuple>
#include <cstdio>
#include <map>

#include "util/fs.hpp"
#include "util/strings.hpp"

namespace mosaic::darshan {

using trace::FileRecord;
using trace::Trace;
using util::Error;
using util::ErrorCode;
using util::Expected;
using util::Status;

namespace {

/// Counter slots the parser understands, applied to a FileRecord.
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

/// Counter descriptor: additive counters accumulate (MPI-IO splits its call
/// counts into independent + collective rows).
struct CounterSpec {
  Counter counter;
  bool additive = false;
};

/// Understood counters across the POSIX, MPI-IO and STDIO modules (the three
/// APIs the paper names). Unknown counters are skipped.
const std::map<std::string_view, CounterSpec>& counter_table() {
  static const std::map<std::string_view, CounterSpec> table{
      // POSIX.
      {"POSIX_OPENS", {Counter::kOpens}},
      {"POSIX_CLOSES", {Counter::kCloses}},  // emitted by us; absent upstream
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
      // MPI-IO: independent and collective call counts accumulate.
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
      // STDIO.
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

/// Parses a `# key: value` header line into the job metadata.
void apply_header(Trace& out, std::string_view key, std::string_view value) {
  using util::parse_double;
  using util::parse_uint;
  if (key == "exe") {
    // darshan records the full command line; the app name is argv[0]'s
    // basename, matching how the paper groups runs of "the same application".
    const auto fields = util::split_whitespace(value);
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
    if (const auto v = parse_uint(value)) {
      out.meta.nprocs = static_cast<std::uint32_t>(*v);
    }
  } else if (key == "start_time") {
    if (const auto v = parse_double(value)) out.meta.start_time = *v;
  } else if (key == "run time" || key == "run_time") {
    if (const auto v = parse_double(value)) out.meta.run_time = *v;
  }
}

}  // namespace

Expected<Trace> parse_text(std::string_view text,
                           const util::Deadline& deadline) {
  // Clock reads are syscall-cheap but not free; amortize over a batch of
  // lines (a line is tens of bytes, so this bounds overrun to ~100KB of
  // parsing past expiry).
  constexpr std::size_t kDeadlineCheckInterval = 4096;
  Trace out;
  // Records keyed by (module, record id, rank): darshan emits one row per
  // counter, and the same file appears once per instrumented API layer.
  std::map<std::tuple<std::string, std::uint64_t, std::int32_t>, std::size_t>
      record_index;
  // Remembered module of each parsed record (same order as out.files).
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
        apply_header(out, util::trim(body.substr(0, colon)),
                     util::trim(body.substr(colon + 1)));
      }
      continue;
    }

    const auto fields = util::split_whitespace(trimmed);
    if (fields.size() < 5) {
      return Error{ErrorCode::kParseError,
                   "line " + std::to_string(line_number) +
                       ": expected >=5 fields, got " +
                       std::to_string(fields.size())};
    }
    const std::string_view module = fields[0];
    if (module != "POSIX" && module != "MPI-IO" && module != "MPIIO" &&
        module != "STDIO") {
      continue;  // LUSTRE, HEATMAP, ... are out of scope
    }

    const auto rank = util::parse_int(fields[1]);
    const auto record_id = util::parse_uint(fields[2]);
    const auto value = util::parse_double(fields[4]);
    if (!rank || !record_id || !value) {
      return Error{ErrorCode::kParseError,
                   "line " + std::to_string(line_number) + ": bad numeric field"};
    }
    const auto counter_it = counter_table().find(fields[3]);
    if (counter_it == counter_table().end()) continue;  // tolerated counter

    // MPI-IO appears as "MPI-IO" in darshan-parser output; normalize.
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

  // A file accessed through MPI-IO is instrumented twice: once at the MPI-IO
  // layer and once at the POSIX layer underneath. Keeping both would double
  // count every byte, so the higher-level MPI-IO record wins and the aliased
  // POSIX record is dropped. STDIO targets distinct streams and stays.
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

  // Upstream darshan has no CLOSE counter; a clean record closes as often as
  // it opens.
  for (auto& record : out.files) {
    if (record.closes == 0) record.closes = record.opens;
  }
  return out;
}

std::string to_text(const Trace& trace) {
  std::string out;
  out.reserve(256 + trace.files.size() * 512);
  char line[512];

  std::snprintf(line, sizeof line, "# darshan log version: 3.41\n");
  out += line;
  std::snprintf(line, sizeof line, "# exe: /usr/bin/%s\n",
                trace.meta.app_name.c_str());
  out += line;
  std::snprintf(line, sizeof line, "# uid: %s\n", trace.meta.user.c_str());
  out += line;
  std::snprintf(line, sizeof line, "# jobid: %" PRIu64 "\n", trace.meta.job_id);
  out += line;
  std::snprintf(line, sizeof line, "# start_time: %.0f\n",
                trace.meta.start_time);
  out += line;
  std::snprintf(line, sizeof line, "# nprocs: %u\n", trace.meta.nprocs);
  out += line;
  std::snprintf(line, sizeof line, "# run time: %.6f\n", trace.meta.run_time);
  out += line;
  out += "\n# <module> <rank> <record id> <counter> <value> <file name>\n";

  const auto emit = [&](const FileRecord& record, const char* counter,
                        double value) {
    const char* name =
        record.file_name.empty() ? "<unknown>" : record.file_name.c_str();
    std::snprintf(line, sizeof line,
                  "POSIX\t%d\t%" PRIu64 "\t%s\t%.6f\t%s\n", record.rank,
                  record.file_id, counter, value, name);
    out += line;
  };

  for (const auto& record : trace.files) {
    emit(record, "POSIX_OPENS", static_cast<double>(record.opens));
    emit(record, "POSIX_CLOSES", static_cast<double>(record.closes));
    emit(record, "POSIX_SEEKS", static_cast<double>(record.seeks));
    emit(record, "POSIX_READS", static_cast<double>(record.reads));
    emit(record, "POSIX_WRITES", static_cast<double>(record.writes));
    emit(record, "POSIX_BYTES_READ", static_cast<double>(record.bytes_read));
    emit(record, "POSIX_BYTES_WRITTEN",
         static_cast<double>(record.bytes_written));
    emit(record, "POSIX_F_OPEN_START_TIMESTAMP", record.open_ts);
    emit(record, "POSIX_F_CLOSE_END_TIMESTAMP", record.close_ts);
    emit(record, "POSIX_F_READ_START_TIMESTAMP", record.first_read_ts);
    emit(record, "POSIX_F_READ_END_TIMESTAMP", record.last_read_ts);
    emit(record, "POSIX_F_WRITE_START_TIMESTAMP", record.first_write_ts);
    emit(record, "POSIX_F_WRITE_END_TIMESTAMP", record.last_write_ts);
  }
  return out;
}

Status write_text_file(const Trace& trace, const std::string& path) {
  // Staged + renamed so a killed writer never leaves a torn half-trace that
  // a later ingest would count as one more corrupted input.
  return util::write_file_atomic(path, to_text(trace));
}

}  // namespace mosaic::darshan
