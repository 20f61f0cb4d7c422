// Dispatch resume journal: an append-only JSONL record of per-task outcomes,
// written and read through the same util/jsonl.hpp layer as the ingest
// resume journal (ingest/journal.hpp).
//
// A distributed run that dies — SIGINT, OOM, a crashed manager node — must
// not throw away the shards its workers already finished. Every terminal
// task outcome (done, quarantined) is appended as one flushed JSON line;
// `mosaic dispatch --resume` replays the journal, re-validates that each
// "done" entry's partial artifact still exists and parses, and only
// schedules the shards that remain. Because the partial artifacts are
// deterministic, the resumed run's merged output is byte-identical to an
// uninterrupted one (enforced in tests/dist/test_dispatch.cpp and
// tests/cli/cli_dispatch.sh).
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "util/error.hpp"

namespace mosaic::dist {

/// One journaled terminal task outcome.
struct JournaledTask {
  std::size_t shard = 0;
  std::size_t shard_count = 1;
  std::string status;        ///< "done" | "quarantined"
  std::string worker;        ///< address that produced the outcome
                             ///< ("local" in degraded mode, "" unknown)
  std::size_t attempts = 0;  ///< total assignments the task consumed
  std::string partial_path;  ///< artifact location for "done" entries
  std::string error;         ///< last failure for "quarantined" entries
};

/// The entry as one JSON line (without the newline util::LineAppender adds).
[[nodiscard]] std::string dispatch_journal_line(const JournaledTask& entry);

/// Loads a journal into a shard-keyed map (later entries win; a resumed run
/// may have re-journaled a shard). A missing file yields an empty map —
/// resuming with no journal is a fresh start, not an error. Malformed lines
/// (torn tail) are skipped and counted into `*dropped_lines` when provided.
[[nodiscard]] util::Expected<std::map<std::size_t, JournaledTask>>
load_dispatch_journal(const std::string& path,
                      std::size_t* dropped_lines = nullptr);

}  // namespace mosaic::dist
