// Reference darshan-parser text reader for differential tests.
//
// This is the line-splitting parser `darshan::parse_text` replaced: a trim,
// a whitespace split into a vector, a std::map counter table and a std::map
// record index. It is kept, slow and obvious, so the fuzz tests can demand
// that the one-pass parser agrees with it on every input: accept or reject,
// error code and message, and every field of the parsed trace.
#pragma once

#include <string_view>

#include "trace/trace.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"

namespace mosaic::darshan::oracle {

/// Same contract as darshan::parse_text.
[[nodiscard]] util::Expected<trace::Trace> parse_text(
    std::string_view text, const util::Deadline& deadline = {});

}  // namespace mosaic::darshan::oracle
