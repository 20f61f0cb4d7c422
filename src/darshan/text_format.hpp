// Reader/writer for the darshan-parser text format.
//
// `darshan-parser <log>` renders a binary Darshan log as a header of
// `# key: value` lines followed by tab-separated counter rows:
//
//   <module> <rank> <record id> <counter> <value> <file name> <mount> <fs>
//
// MOSAIC consumes the POSIX module counters listed in kRequiredCounters
// below. The writer emits exactly what the reader needs, so synthetic
// populations round-trip; the reader is tolerant of the extra counters and
// modules a real darshan-parser dump contains (they are skipped).
#pragma once

#include <string>
#include <string_view>

#include "trace/trace.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"

namespace mosaic::darshan {

/// Parses a darshan-parser text document into a Trace.
/// Unknown modules/counters are ignored; missing job header fields default
/// (nprocs=1, run time required). Returns kParseError on malformed rows.
/// A finite `deadline` is checked every few thousand lines so a pathological
/// multi-gigabyte document cannot wedge an ingest worker; expiry returns
/// kTimeout.
[[nodiscard]] util::Expected<trace::Trace> parse_text(
    std::string_view text, const util::Deadline& deadline = {});

/// Serializes a Trace to darshan-parser text form (POSIX module only).
[[nodiscard]] std::string to_text(const trace::Trace& trace);

/// Writes `to_text(trace)` to `path`.
[[nodiscard]] util::Status write_text_file(const trace::Trace& trace,
                                           const std::string& path);

}  // namespace mosaic::darshan
