// Resume journal: an append-only record of per-file ingest outcomes, the
// codec of core::FileOutcome.
//
// A multi-hour batch over hundreds of thousands of traces must survive being
// killed. Each file's outcome is appended as one JSON line and flushed
// (util::LineAppender), so an interrupted run can be resumed with --resume:
// journaled evictions are re-counted without touching the file again, and
// journaled valid files re-enter dedup by digest (path, app key, bytes, job
// id) — only the per-app dedup winners are ever re-read. A torn trailing
// line (the crash can hit mid-append) is detected and ignored on load.
//
// 64-bit counters are stored as decimal strings because JSON numbers are
// doubles here; byte counts must round-trip exactly or the dedup tie-break
// could pick a different winner after resume.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "core/preprocess.hpp"
#include "util/error.hpp"

namespace mosaic::ingest {

/// The outcome as one JSON line (without the newline util::LineAppender
/// adds). An eviction's message is not journaled, only its code.
[[nodiscard]] std::string journal_line(const core::FileOutcome& outcome);

/// Loads a journal into a path-keyed map. Later entries for the same path
/// win (a resumed run may have re-journaled a file). A missing file yields
/// an empty map — resuming with no journal is a fresh start, not an error.
/// Malformed lines (torn tail, stray garbage, an unknown code or kind name)
/// are skipped and counted into `*dropped_lines` when provided.
[[nodiscard]] util::Expected<std::map<std::string, core::FileOutcome>>
load_journal(const std::string& path, std::size_t* dropped_lines = nullptr);

}  // namespace mosaic::ingest
