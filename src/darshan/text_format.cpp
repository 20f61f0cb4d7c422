#include "darshan/text_format.hpp"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/fs.hpp"
#include "util/strings.hpp"

namespace mosaic::darshan {

using trace::FileRecord;
using trace::Trace;
using util::Error;
using util::ErrorCode;
using util::Expected;
using util::Status;
using util::is_space;

namespace {

/// Counter slots the parser understands, applied to a FileRecord. Counts come
/// first, timestamps after kOpenStart.
enum class Counter : std::uint8_t {
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
  std::string_view name;
  Counter counter;
  bool additive = false;
};

/// Understood counters across the POSIX, MPI-IO and STDIO modules (the three
/// APIs the paper names). Unknown counters are skipped.
constexpr CounterSpec kCounters[] = {
    // POSIX.
    {"POSIX_OPENS", Counter::kOpens},
    {"POSIX_CLOSES", Counter::kCloses},  // emitted by us; absent upstream
    {"POSIX_SEEKS", Counter::kSeeks},
    {"POSIX_READS", Counter::kReads},
    {"POSIX_WRITES", Counter::kWrites},
    {"POSIX_BYTES_READ", Counter::kBytesRead},
    {"POSIX_BYTES_WRITTEN", Counter::kBytesWritten},
    {"POSIX_F_OPEN_START_TIMESTAMP", Counter::kOpenStart},
    {"POSIX_F_CLOSE_END_TIMESTAMP", Counter::kCloseEnd},
    {"POSIX_F_READ_START_TIMESTAMP", Counter::kReadStart},
    {"POSIX_F_READ_END_TIMESTAMP", Counter::kReadEnd},
    {"POSIX_F_WRITE_START_TIMESTAMP", Counter::kWriteStart},
    {"POSIX_F_WRITE_END_TIMESTAMP", Counter::kWriteEnd},
    // MPI-IO: independent and collective call counts accumulate.
    {"MPIIO_INDEP_OPENS", Counter::kOpens, true},
    {"MPIIO_COLL_OPENS", Counter::kOpens, true},
    {"MPIIO_INDEP_READS", Counter::kReads, true},
    {"MPIIO_COLL_READS", Counter::kReads, true},
    {"MPIIO_INDEP_WRITES", Counter::kWrites, true},
    {"MPIIO_COLL_WRITES", Counter::kWrites, true},
    {"MPIIO_BYTES_READ", Counter::kBytesRead},
    {"MPIIO_BYTES_WRITTEN", Counter::kBytesWritten},
    {"MPIIO_F_OPEN_START_TIMESTAMP", Counter::kOpenStart},
    {"MPIIO_F_CLOSE_END_TIMESTAMP", Counter::kCloseEnd},
    {"MPIIO_F_READ_START_TIMESTAMP", Counter::kReadStart},
    {"MPIIO_F_READ_END_TIMESTAMP", Counter::kReadEnd},
    {"MPIIO_F_WRITE_START_TIMESTAMP", Counter::kWriteStart},
    {"MPIIO_F_WRITE_END_TIMESTAMP", Counter::kWriteEnd},
    // STDIO.
    {"STDIO_OPENS", Counter::kOpens},
    {"STDIO_SEEKS", Counter::kSeeks},
    {"STDIO_READS", Counter::kReads},
    {"STDIO_WRITES", Counter::kWrites},
    {"STDIO_BYTES_READ", Counter::kBytesRead},
    {"STDIO_BYTES_WRITTEN", Counter::kBytesWritten},
    {"STDIO_F_OPEN_START_TIMESTAMP", Counter::kOpenStart},
    {"STDIO_F_CLOSE_END_TIMESTAMP", Counter::kCloseEnd},
    {"STDIO_F_READ_START_TIMESTAMP", Counter::kReadStart},
    {"STDIO_F_READ_END_TIMESTAMP", Counter::kReadEnd},
    {"STDIO_F_WRITE_START_TIMESTAMP", Counter::kWriteStart},
    {"STDIO_F_WRITE_END_TIMESTAMP", Counter::kWriteEnd},
};

std::uint64_t load8(const char* p) noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof word);
  return word;
}

/// True when some byte of `word` is <= 0x20, so the block may hold the
/// whitespace that ends a field. Exact as a yes/no answer.
bool may_hold_space(std::uint64_t word) noexcept {
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  constexpr std::uint64_t kHighBits = 0x8080808080808080ull;
  return ((word - kOnes * 0x21) & ~word & kHighBits) != 0;
}

/// Yields the whitespace-separated fields of one row in order, as views into
/// the row.
class FieldCursor {
 public:
  FieldCursor(const char* begin, const char* end) : p_(begin), end_(end) {}

  /// The next field, or an empty view once the row is used up.
  std::string_view next() noexcept {
    while (p_ != end_ && is_space(*p_)) ++p_;
    const char* const start = p_;
    for (;;) {
      while (end_ - p_ >= 8 && !may_hold_space(load8(p_))) p_ += 8;
      const char* const stop = end_ - p_ >= 8 ? p_ + 8 : end_;
      while (p_ != stop && !is_space(*p_)) ++p_;
      if (p_ != stop || p_ == end_) break;
    }
    return {start, static_cast<std::size_t>(p_ - start)};
  }

 private:
  const char* p_;
  const char* end_;
};

/// kCounters by name: open addressing on a hash of the length and the first
/// and last 8 bytes, then one exact compare. Every name is at least 8 bytes.
class CounterTable {
 public:
  CounterTable() {
    for (const CounterSpec& spec : kCounters) {
      std::size_t at = slot_of(spec.name);
      while (slots_[at] != nullptr) at = (at + 1) % kSlots;
      slots_[at] = &spec;
    }
  }

  /// The counter named `name`, or nullptr for a counter MOSAIC skips.
  const CounterSpec* find(std::string_view name) const noexcept {
    if (name.size() < 8) return nullptr;
    for (std::size_t at = slot_of(name);; at = (at + 1) % kSlots) {
      const CounterSpec* spec = slots_[at];
      if (spec == nullptr || spec->name == name) return spec;
    }
  }

 private:
  static constexpr std::size_t kSlots = 128;  // a power of two, > 2 × kCounters

  static std::size_t slot_of(std::string_view name) noexcept {
    const std::uint64_t head = load8(name.data());
    const std::uint64_t tail = load8(name.data() + name.size() - 8);
    const std::uint64_t h = (head * 0x9E3779B97F4A7C15ull) ^
                            (tail + name.size()) * 0xC2B2AE3D27D4EB4Full;
    return static_cast<std::size_t>((h ^ (h >> 32)) % kSlots);
  }

  const CounterSpec* slots_[kSlots] = {};
};

const CounterTable& counter_table() {
  static const CounterTable table;
  return table;
}

/// The modules MOSAIC reads; kNone covers LUSTRE, HEATMAP, ... (out of scope).
enum class Module : std::uint8_t { kNone, kPosix, kMpiio, kStdio };

Module module_of(std::string_view name) noexcept {
  if (name == "POSIX") return Module::kPosix;
  // MPI-IO appears as "MPI-IO" in darshan-parser output; normalize.
  if (name == "MPI-IO" || name == "MPIIO") return Module::kMpiio;
  if (name == "STDIO") return Module::kStdio;
  return Module::kNone;
}

/// Records by (module, record id, rank): darshan emits one row per counter,
/// and the same file appears once per instrumented API layer. Open
/// addressing over slots into Trace::files.
class RecordIndex {
 public:
  /// The slot of the record, or `next_slot` (inserted) when there is none.
  std::pair<std::size_t, bool> try_emplace(Module module, std::uint64_t id,
                                           std::int32_t rank,
                                           std::size_t next_slot) {
    if (2 * (size_ + 1) > entries_.size()) grow();
    Entry& entry = entries_[probe(module, id, rank)];
    if (entry.module != Module::kNone) return {entry.slot, false};
    entry = {id, rank, module, next_slot};
    ++size_;
    return {next_slot, true};
  }

  [[nodiscard]] bool contains(Module module, std::uint64_t id,
                              std::int32_t rank) const {
    return !entries_.empty() &&
           entries_[probe(module, id, rank)].module != Module::kNone;
  }

 private:
  struct Entry {
    std::uint64_t id = 0;
    std::int32_t rank = 0;
    Module module = Module::kNone;  // kNone marks a free entry
    std::size_t slot = 0;
  };

  /// The entry holding the key, or the free entry where it would go.
  std::size_t probe(Module module, std::uint64_t id,
                    std::int32_t rank) const noexcept {
    const std::size_t mask = entries_.size() - 1;
    const std::uint64_t key =
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) << 8 |
        static_cast<std::uint64_t>(module);
    const std::uint64_t h = (id ^ key * 0xC2B2AE3D27D4EB4Full) *
                            0x9E3779B97F4A7C15ull;
    for (auto at = static_cast<std::size_t>(h ^ (h >> 32)) & mask;;
         at = (at + 1) & mask) {
      const Entry& entry = entries_[at];
      if (entry.module == Module::kNone ||
          (entry.module == module && entry.id == id && entry.rank == rank)) {
        return at;
      }
    }
  }

  void grow() {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(old.empty() ? 32 : 2 * old.size(), Entry{});
    for (const Entry& entry : old) {
      if (entry.module != Module::kNone) {
        entries_[probe(entry.module, entry.id, entry.rank)] = entry;
      }
    }
  }

  std::vector<Entry> entries_;  // a power-of-two size, at most half full
  std::size_t size_ = 0;
};

template <typename T>
bool parse_field(std::string_view field, T& out) noexcept {
  const char* const end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// Applies one counter row. Returns false when a count does not fit its
/// uint64_t member (NaN, inf, 2^64 or more); negative counts clamp to 0 and
/// timestamps keep any value.
bool apply_counter(FileRecord& record, const CounterSpec& spec, double value) {
  if (spec.counter < Counter::kOpenStart && !(value < 0x1p64)) return false;
  const auto set_or_add = [&](std::uint64_t& member) {
    const std::uint64_t count =
        value < 0.0 ? 0 : static_cast<std::uint64_t>(value);
    member = spec.additive ? member + count : count;
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
  return true;
}

/// Parses a `# key: value` header line into the job metadata. False when
/// the value is a number that does not fit its field (a bad numeric
/// field); a value that is not a number is ignored.
bool apply_header(Trace& out, std::string_view key, std::string_view value) {
  using util::parse_double;
  using util::parse_uint;
  if (key == "exe") {
    // darshan records the full command line; the app name is argv[0]'s
    // basename, matching how the paper groups runs of "the same application".
    std::string_view exe =
        FieldCursor(value.data(), value.data() + value.size()).next();
    if (!exe.empty()) {
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
    // A rank count past uint32_t is a bad field, not a wrap into a smaller
    // count.
    std::uint64_t nprocs = 0;
    const auto [end, ec] =
        std::from_chars(value.data(), value.data() + value.size(), nprocs);
    if (ec == std::errc::invalid_argument || end != value.data() + value.size()) {
      return true;
    }
    if (ec != std::errc{} || nprocs > std::numeric_limits<std::uint32_t>::max()) {
      return false;
    }
    out.meta.nprocs = static_cast<std::uint32_t>(nprocs);
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
  // Clock reads are syscall-cheap but not free; amortize over a batch of
  // lines (a line is tens of bytes, so this bounds overrun to ~100KB of
  // parsing past expiry).
  constexpr std::size_t kDeadlineCheckInterval = 4096;
  const CounterTable& counters = counter_table();
  Trace out;
  RecordIndex record_index;
  // Module of each parsed record (same order as out.files).
  std::vector<Module> record_module;
  // darshan-parser emits a record's counters one after another, so a row
  // whose module, rank and record id bytes repeat the last applied row's
  // reuses its record without parsing or looking up the key again.
  struct {
    Module module = Module::kNone;
    std::string_view rank;
    std::string_view id;
    std::size_t slot = 0;
  } last;

  const char* cursor = text.data();
  const char* const text_end = cursor + text.size();
  std::size_t line_number = 0;
  for (bool more_lines = true; more_lines;) {
    const char* const eol =
        cursor == text_end
            ? nullptr
            : static_cast<const char*>(
                  std::memchr(cursor, '\n', static_cast<std::size_t>(
                                                text_end - cursor)));
    const char* p = cursor;
    const char* const line_end = eol != nullptr ? eol : text_end;
    more_lines = eol != nullptr;
    cursor = more_lines ? eol + 1 : text_end;
    ++line_number;
    if (line_number % kDeadlineCheckInterval == 0 && deadline.expired()) {
      return Error{ErrorCode::kTimeout,
                   "parse deadline exceeded at line " +
                       std::to_string(line_number)};
    }

    while (p != line_end && is_space(*p)) ++p;
    if (p == line_end) continue;

    if (*p == '#') {
      const std::string_view body = util::trim(
          std::string_view(p + 1, static_cast<std::size_t>(line_end - p - 1)));
      if (const auto colon = body.find(':'); colon != std::string_view::npos) {
        if (!apply_header(out, util::trim(body.substr(0, colon)),
                          util::trim(body.substr(colon + 1)))) {
          return bad_numeric_field(line_number);
        }
      }
      continue;
    }

    // <module> <rank> <record id> <counter> <value> [<file name> ...]
    FieldCursor row(p, line_end);
    std::string_view fields[5];
    std::size_t field_count = 0;
    while (field_count < 5 && !(fields[field_count] = row.next()).empty()) {
      ++field_count;
    }
    if (field_count < 5) {
      return Error{ErrorCode::kParseError,
                   "line " + std::to_string(line_number) +
                       ": expected >=5 fields, got " +
                       std::to_string(field_count)};
    }
    const Module module = module_of(fields[0]);
    if (module == Module::kNone) continue;

    const bool same_record = module == last.module &&
                             fields[1] == last.rank && fields[2] == last.id;
    // A rank outside int32_t is a bad field, not a wrap into another rank.
    std::int32_t rank = 0;
    std::uint64_t record_id = 0;
    if (!same_record &&
        !(parse_field(fields[1], rank) && parse_field(fields[2], record_id))) {
      return bad_numeric_field(line_number);
    }
    double value = 0.0;
    if (!parse_field(fields[4], value)) return bad_numeric_field(line_number);
    const CounterSpec* spec = counters.find(fields[3]);
    if (spec == nullptr) continue;  // tolerated counter

    if (!same_record) {
      const auto [slot, inserted] = record_index.try_emplace(
          module, record_id, rank, out.files.size());
      if (inserted) {
        FileRecord record;
        record.file_id = record_id;
        record.rank = rank;
        record.file_name = std::string(row.next());
        out.files.push_back(std::move(record));
        record_module.push_back(module);
      }
      last = {module, fields[1], fields[2], slot};
    }
    if (!apply_counter(out.files[last.slot], *spec, value)) {
      return bad_numeric_field(line_number);
    }
  }

  if (out.meta.run_time <= 0.0) {
    return Error{ErrorCode::kParseError, "missing or invalid 'run time' header"};
  }

  // A file accessed through MPI-IO is instrumented twice: once at the MPI-IO
  // layer and once at the POSIX layer underneath. Keeping both would double
  // count every byte, so the higher-level MPI-IO record wins and the aliased
  // POSIX record is dropped. STDIO targets distinct streams and stays.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < out.files.size(); ++i) {
    if (record_module[i] == Module::kPosix &&
        record_index.contains(Module::kMpiio, out.files[i].file_id,
                              out.files[i].rank)) {
      continue;
    }
    if (kept != i) out.files[kept] = std::move(out.files[i]);
    ++kept;
  }
  out.files.resize(kept);

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
