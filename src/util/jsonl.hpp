// JSON Lines files: the one appender and the one line reader behind every
// JSONL artifact — the ingest resume journal (`mosaic batch --journal`),
// provenance.jsonl and the ground-truth sidecar.
//
// The file layer knows lines, not JSON: each caller keeps its entry <-> JSON
// codec and its policy for a line the codec rejects.
//   - The resume journal skips and counts it (a killed run tears its last
//     line mid-append) and reads a missing file as empty:
//     read_journal_lines().
//   - Provenance and truth files fail with `path:line`: read_lines() with a
//     visitor that returns the codec's error (json::read_jsonl).
#pragma once

#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

#include "util/error.hpp"

namespace mosaic::util {

/// Appends newline-terminated lines. By default each line is flushed as it
/// is appended, so a killed process loses at most the line being written;
/// a writer that appends lines in batches can defer the flush to the end of
/// each batch, and a killed process then loses at most the batch.
class LineAppender {
 public:
  /// Whether append() flushes the line to the file before returning.
  enum class Flush : bool { kDeferred, kNow };

  LineAppender() = default;
  ~LineAppender();

  LineAppender(const LineAppender&) = delete;
  LineAppender& operator=(const LineAppender&) = delete;

  /// Opens `path` for appending (creating it if needed).
  [[nodiscard]] Status open(const std::string& path);

  [[nodiscard]] bool is_open() const noexcept { return file_ != nullptr; }

  /// Appends `line` plus '\n'; a no-op while closed (journaling disabled).
  /// A deferred line reaches the file at the next flush(), when the stream
  /// buffer fills, or at close(). A failure leaves the appender usable: a
  /// journal write error must not abort the run the journal protects.
  [[nodiscard]] Status append(std::string_view line, Flush when = Flush::kNow);

  /// Writes the deferred lines out; a no-op while closed.
  [[nodiscard]] Status flush();

  void close();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
};

/// Calls `visit` on every non-blank line of `path` in order, with a trailing
/// '\r' removed (files that passed through CRLF tooling). Stops at the first
/// error `visit` returns and reports it as "<path>:<line>: <message>". A
/// missing file is kNotFound.
[[nodiscard]] Status read_lines(
    const std::string& path,
    const std::function<Status(std::string_view line)>& visit);

/// The resume-journal policy over read_lines: a missing file reads as empty,
/// and a line `accept` rejects (a torn tail, stray garbage) is skipped and
/// counted into `*dropped_lines` when provided.
[[nodiscard]] Status read_journal_lines(
    const std::string& path,
    const std::function<bool(std::string_view line)>& accept,
    std::size_t* dropped_lines = nullptr);

}  // namespace mosaic::util
