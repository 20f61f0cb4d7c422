// Process memory introspection.
//
// The paper reports memory as MOSAIC's main bottleneck (300 GB to process
// the year of traces, §IV-E); the benches report peak RSS alongside their
// timings so the memory/scale relationship stays visible.
#pragma once

#include <cstdint>

namespace mosaic::util {

/// Peak resident set size of this process in bytes (VmHWM), or 0 when the
/// platform does not expose it (non-Linux).
[[nodiscard]] std::uint64_t peak_rss_bytes() noexcept;

}  // namespace mosaic::util
