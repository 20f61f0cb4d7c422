#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace mosaic::trace {
namespace {

/// A minimal valid trace: one file read early, one file written late.
Trace make_valid_trace() {
  Trace t;
  t.meta.job_id = 1;
  t.meta.app_name = "app";
  t.meta.user = "u1";
  t.meta.nprocs = 8;
  t.meta.start_time = 1.5e9;
  t.meta.run_time = 1000.0;

  FileRecord input;
  input.file_id = 10;
  input.rank = kSharedRank;
  input.bytes_read = 1 << 20;
  input.reads = 4;
  input.opens = 8;
  input.closes = 8;
  input.seeks = 2;
  input.open_ts = 1.0;
  input.close_ts = 20.0;
  input.first_read_ts = 2.0;
  input.last_read_ts = 18.0;
  t.files.push_back(input);

  FileRecord output;
  output.file_id = 11;
  output.rank = 0;
  output.bytes_written = 2 << 20;
  output.writes = 8;
  output.opens = 1;
  output.closes = 1;
  output.open_ts = 900.0;
  output.close_ts = 990.0;
  output.first_write_ts = 905.0;
  output.last_write_ts = 985.0;
  t.files.push_back(output);
  return t;
}

TEST(TraceTotals, SumsAcrossFiles) {
  const Trace t = make_valid_trace();
  EXPECT_EQ(t.total_bytes_read(), 1u << 20);
  EXPECT_EQ(t.total_bytes_written(), 2u << 20);
  EXPECT_EQ(t.total_bytes(), 3u << 20);
}

TEST(TraceAppKey, CombinesUserAndApp) {
  const Trace t = make_valid_trace();
  EXPECT_EQ(t.app_key(), "u1/app");
}

TEST(IoOp, DurationAndOverlap) {
  const IoOp a{.start = 1.0, .end = 5.0, .bytes = 10};
  const IoOp b{.start = 4.0, .end = 8.0, .bytes = 10};
  const IoOp c{.start = 6.0, .end = 9.0, .bytes = 10};
  EXPECT_DOUBLE_EQ(a.duration(), 4.0);
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(b.overlaps(c));
}

TEST(Validate, AcceptsValidTrace) {
  const ValidityReport report = validate(make_valid_trace());
  EXPECT_TRUE(report.valid());
  EXPECT_EQ(report.kind, CorruptionKind::kNone);
}

TEST(Validate, RejectsNonPositiveRuntime) {
  Trace t = make_valid_trace();
  t.meta.run_time = 0.0;
  EXPECT_EQ(validate(t).kind, CorruptionKind::kNonPositiveRuntime);
  t.meta.run_time = -5.0;
  EXPECT_EQ(validate(t).kind, CorruptionKind::kNonPositiveRuntime);
}

TEST(Validate, RejectsNanRuntime) {
  Trace t = make_valid_trace();
  t.meta.run_time = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(validate(t).kind, CorruptionKind::kNonFiniteValue);
}

TEST(Validate, RejectsZeroRanks) {
  Trace t = make_valid_trace();
  t.meta.nprocs = 0;
  EXPECT_EQ(validate(t).kind, CorruptionKind::kZeroRanks);
}

TEST(Validate, RejectsNegativeTimestamp) {
  Trace t = make_valid_trace();
  t.files[0].open_ts = -3.0;
  EXPECT_EQ(validate(t).kind, CorruptionKind::kNegativeTimestamp);
}

TEST(Validate, RejectsInvertedOpenClose) {
  Trace t = make_valid_trace();
  t.files[0].open_ts = 50.0;
  t.files[0].close_ts = 10.0;
  EXPECT_EQ(validate(t).kind, CorruptionKind::kInvertedWindow);
}

TEST(Validate, RejectsInvertedAccessWindow) {
  Trace t = make_valid_trace();
  t.files[0].first_read_ts = 18.0;
  t.files[0].last_read_ts = 2.0;
  EXPECT_EQ(validate(t).kind, CorruptionKind::kInvertedWindow);
}

TEST(Validate, RejectsCloseAfterJobEnd) {
  // The paper's corruption example: deallocation recorded past execution end.
  Trace t = make_valid_trace();
  t.files[1].close_ts = 5000.0;
  EXPECT_EQ(validate(t).kind, CorruptionKind::kAccessOutsideJob);
}

TEST(Validate, RejectsAccessOutsideOpenWindow) {
  Trace t = make_valid_trace();
  t.files[0].first_read_ts = 500.0;  // way past close_ts=20
  t.files[0].last_read_ts = 600.0;
  EXPECT_EQ(validate(t).kind, CorruptionKind::kAccessOutsideOpen);
}

TEST(Validate, RejectsBytesWithoutCalls) {
  Trace t = make_valid_trace();
  t.files[0].reads = 0;  // bytes_read stays > 0
  EXPECT_EQ(validate(t).kind, CorruptionKind::kCounterMismatch);
}

TEST(Validate, RejectsBytesWithoutWindow) {
  Trace t = make_valid_trace();
  t.files[0].first_read_ts = kNoTimestamp;
  t.files[0].last_read_ts = kNoTimestamp;
  EXPECT_EQ(validate(t).kind, CorruptionKind::kCounterMismatch);
}

TEST(Validate, SlackAbsorbsSmallSkew) {
  Trace t = make_valid_trace();
  t.files[1].close_ts = t.meta.run_time + 0.5;  // within 1s slack
  EXPECT_TRUE(validate(t).valid());
  t.files[1].close_ts = t.meta.run_time + 5.0;
  EXPECT_FALSE(validate(t, 1.0).valid());
  EXPECT_TRUE(validate(t, 10.0).valid());
}

TEST(Validate, EmptyTraceIsValid) {
  Trace t;
  t.meta.run_time = 100.0;
  t.meta.nprocs = 1;
  EXPECT_TRUE(validate(t).valid());
}

TEST(ExtractOps, ReadAndWriteSeparated) {
  const Trace t = make_valid_trace();
  const auto reads = extract_ops(t, OpKind::kRead);
  const auto writes = extract_ops(t, OpKind::kWrite);
  ASSERT_EQ(reads.size(), 1u);
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_DOUBLE_EQ(reads[0].start, 2.0);
  EXPECT_DOUBLE_EQ(reads[0].end, 18.0);
  EXPECT_EQ(reads[0].bytes, 1u << 20);
  EXPECT_EQ(reads[0].kind, OpKind::kRead);
  EXPECT_DOUBLE_EQ(writes[0].start, 905.0);
  EXPECT_EQ(writes[0].rank, 0);
}

TEST(ExtractOps, SkipsEmptyWindows) {
  Trace t = make_valid_trace();
  t.files[0].bytes_read = 0;
  t.files[0].reads = 0;
  t.files[0].first_read_ts = kNoTimestamp;
  t.files[0].last_read_ts = kNoTimestamp;
  EXPECT_TRUE(extract_ops(t, OpKind::kRead).empty());
}

TEST(ExtractOps, WidensZeroLengthWindows) {
  Trace t = make_valid_trace();
  t.files[0].first_read_ts = 5.0;
  t.files[0].last_read_ts = 5.0;
  const auto ops = extract_ops(t, OpKind::kRead, 0.01);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_GT(ops[0].duration(), 0.0);
  EXPECT_DOUBLE_EQ(ops[0].end, 5.01);
}

TEST(ExtractOps, SortedByStart) {
  Trace t = make_valid_trace();
  // Add an earlier read on a second file.
  FileRecord early = t.files[0];
  early.file_id = 99;
  early.first_read_ts = 0.5;
  early.last_read_ts = 0.8;
  early.open_ts = 0.4;
  early.close_ts = 1.0;
  t.files.push_back(early);
  const auto ops = extract_ops(t, OpKind::kRead);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_LT(ops[0].start, ops[1].start);
}

TEST(MetadataTimeline, OpensSeeksAtOpenClosesAtClose) {
  const Trace t = make_valid_trace();
  const auto events = metadata_timeline(t);
  ASSERT_EQ(events.size(), 4u);
  // Sorted by time: file0 open (1.0), file0 close (20.0), file1 open (900),
  // file1 close (990).
  EXPECT_DOUBLE_EQ(events[0].time, 1.0);
  EXPECT_EQ(events[0].requests, 8u + 2u);  // opens + seeks co-located
  EXPECT_DOUBLE_EQ(events[1].time, 20.0);
  EXPECT_EQ(events[1].requests, 8u);
  EXPECT_DOUBLE_EQ(events[3].time, 990.0);
  EXPECT_EQ(events[3].requests, 1u);
}

TEST(MetadataTimeline, SkipsZeroCountRecords) {
  Trace t;
  t.meta.run_time = 10.0;
  FileRecord quiet;
  quiet.opens = 0;
  quiet.closes = 0;
  quiet.seeks = 0;
  t.files.push_back(quiet);
  EXPECT_TRUE(metadata_timeline(t).empty());
}

TEST(CorruptionKindName, AllDistinct) {
  EXPECT_STREQ(corruption_kind_name(CorruptionKind::kNone), "none");
  EXPECT_STREQ(corruption_kind_name(CorruptionKind::kAccessOutsideJob),
               "access-outside-job");
  EXPECT_STREQ(corruption_kind_name(CorruptionKind::kCounterMismatch),
               "counter-mismatch");
}

}  // namespace
}  // namespace mosaic::trace
