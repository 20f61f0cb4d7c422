#include "core/segmentation.hpp"

namespace mosaic::core {

std::vector<Segment> segment_ops(std::span<const trace::IoOp> ops) {
  std::vector<Segment> segments;
  segment_ops(ops, segments);
  return segments;
}

void segment_ops(std::span<const trace::IoOp> ops,
                 std::vector<Segment>& segments) {
  segments.clear();
  if (ops.size() < 2) return;
  segments.reserve(ops.size() - 1);
  for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
    MOSAIC_ASSERT(ops[i + 1].start >= ops[i].start);
    Segment segment;
    segment.start = ops[i].start;
    segment.length = ops[i + 1].start - ops[i].start;
    segment.op_duration = ops[i].duration();
    segment.bytes = ops[i].bytes;
    segments.push_back(segment);
  }
}

}  // namespace mosaic::core
