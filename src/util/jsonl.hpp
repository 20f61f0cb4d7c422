// JSON Lines files: the one line reader behind every JSONL artifact read
// back (provenance.jsonl and the ground-truth sidecar).
//
// The file layer knows lines, not JSON: each caller keeps its entry <-> JSON
// codec, and a line the codec rejects fails the read with `path:line`
// (json::read_jsonl).
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "util/error.hpp"

namespace mosaic::util {

/// Calls `visit` on every non-blank line of `path` in order, with a trailing
/// '\r' removed (files that passed through CRLF tooling). Stops at the first
/// error `visit` returns and reports it as "<path>:<line>: <message>". A
/// missing file is kNotFound.
[[nodiscard]] Status read_lines(
    const std::string& path,
    const std::function<Status(std::string_view line)>& visit);

}  // namespace mosaic::util
