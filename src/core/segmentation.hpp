// Trace segmentation (paper §III-B3a, upper half of Fig. 2).
//
// After merging, the op stream is cut into segments: segment i spans from
// the start of op i to the start of op i+1. Each segment carries the
// duration and byte volume of its originating op, the two features the
// Mean-Shift periodicity detector clusters on. The final op has no
// successor, hence no period evidence, and yields no segment.
#pragma once

#include <span>
#include <vector>

#include "trace/trace.hpp"

namespace mosaic::core {

/// One inter-operation segment.
struct Segment {
  double start = 0.0;        ///< start of the originating op
  double length = 0.0;       ///< op i start -> op i+1 start (> 0)
  double op_duration = 0.0;  ///< duration of the originating op
  std::uint64_t bytes = 0;   ///< bytes moved by the originating op

  /// Fraction of the segment spent doing I/O — the "activity rate during
  /// the period" of §III-B3a, and the basis of the busy-time categories.
  [[nodiscard]] double busy_ratio() const noexcept {
    return length > 0.0 ? op_duration / length : 0.0;
  }
};

/// Builds segments from sorted, disjoint ops (output of merging).
/// n ops -> n-1 segments; fewer than two ops -> empty.
[[nodiscard]] std::vector<Segment> segment_ops(
    std::span<const trace::IoOp> ops);

/// As above, but writes into `out` (cleared first, capacity reused) — the
/// allocation-free form used by the analyzer workspace.
void segment_ops(std::span<const trace::IoOp> ops, std::vector<Segment>& out);

}  // namespace mosaic::core
