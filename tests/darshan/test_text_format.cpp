#include "darshan/text_format.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "ingest/ingest.hpp"

namespace mosaic::darshan {
namespace {

trace::Trace make_trace() {
  trace::Trace t;
  t.meta.job_id = 9807799;
  t.meta.app_name = "iobubble";
  t.meta.user = "380111";
  t.meta.nprocs = 64;
  t.meta.start_time = 1554861840.0;
  t.meta.run_time = 600.0;

  trace::FileRecord file;
  file.file_id = 123456789;
  file.file_name = "/scratch/u/data.h5";
  file.rank = trace::kSharedRank;
  file.bytes_read = 1 << 30;
  file.reads = 256;
  file.opens = 64;
  file.closes = 64;
  file.seeks = 32;
  file.open_ts = 1.5;
  file.close_ts = 590.0;
  file.first_read_ts = 2.0;
  file.last_read_ts = 580.0;
  t.files.push_back(file);

  trace::FileRecord out;
  out.file_id = 42;
  out.file_name = "/scratch/u/result.dat";
  out.rank = 0;
  out.bytes_written = 5 << 20;
  out.writes = 5;
  out.opens = 1;
  out.closes = 1;
  out.open_ts = 550.0;
  out.close_ts = 598.0;
  out.first_write_ts = 551.0;
  out.last_write_ts = 597.0;
  t.files.push_back(out);
  return t;
}

TEST(TextFormat, RoundTripPreservesEverything) {
  const trace::Trace original = make_trace();
  const std::string text = to_text(original);
  const auto parsed = parse_text(text);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();

  const trace::Trace& t = *parsed;
  EXPECT_EQ(t.meta.job_id, original.meta.job_id);
  EXPECT_EQ(t.meta.app_name, original.meta.app_name);
  EXPECT_EQ(t.meta.user, original.meta.user);
  EXPECT_EQ(t.meta.nprocs, original.meta.nprocs);
  EXPECT_DOUBLE_EQ(t.meta.run_time, original.meta.run_time);
  ASSERT_EQ(t.files.size(), original.files.size());
  for (std::size_t i = 0; i < t.files.size(); ++i) {
    const auto& a = t.files[i];
    const auto& b = original.files[i];
    EXPECT_EQ(a.file_id, b.file_id);
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.bytes_read, b.bytes_read);
    EXPECT_EQ(a.bytes_written, b.bytes_written);
    EXPECT_EQ(a.opens, b.opens);
    EXPECT_EQ(a.closes, b.closes);
    EXPECT_EQ(a.seeks, b.seeks);
    EXPECT_NEAR(a.open_ts, b.open_ts, 1e-6);
    EXPECT_NEAR(a.close_ts, b.close_ts, 1e-6);
    EXPECT_NEAR(a.first_read_ts, b.first_read_ts, 1e-6);
    EXPECT_NEAR(a.last_write_ts, b.last_write_ts, 1e-6);
  }
}

TEST(TextFormat, ParsesRealDarshanParserShape) {
  // Mimics genuine darshan-parser output: extra headers, non-POSIX modules,
  // unknown counters — all tolerated.
  const std::string text =
      "# darshan log version: 3.10\n"
      "# compression method: ZLIB\n"
      "# exe: /u/sciteam/user/bin/lmp_bw -in in.script\n"
      "# uid: 380111\n"
      "# jobid: 9807799\n"
      "# start_time: 1554861840\n"
      "# nprocs: 32\n"
      "# run time: 120.5\n"
      "\n"
      "MPI-IO\t-1\t777\tMPIIO_INDEP_OPENS\t32\t/f\t/scr\tlustre\n"
      "POSIX\t-1\t555\tPOSIX_OPENS\t32\t/f\t/scr\tlustre\n"
      "POSIX\t-1\t555\tPOSIX_FDSYNCS\t0\t/f\t/scr\tlustre\n"
      "POSIX\t-1\t555\tPOSIX_BYTES_READ\t1048576\t/f\t/scr\tlustre\n"
      "POSIX\t-1\t555\tPOSIX_READS\t16\t/f\t/scr\tlustre\n"
      "POSIX\t-1\t555\tPOSIX_F_OPEN_START_TIMESTAMP\t0.1\t/f\t/scr\tlustre\n"
      "POSIX\t-1\t555\tPOSIX_F_CLOSE_END_TIMESTAMP\t100.0\t/f\t/scr\tlustre\n"
      "POSIX\t-1\t555\tPOSIX_F_READ_START_TIMESTAMP\t0.2\t/f\t/scr\tlustre\n"
      "POSIX\t-1\t555\tPOSIX_F_READ_END_TIMESTAMP\t99.0\t/f\t/scr\tlustre\n";
  const auto parsed = parse_text(text);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
  EXPECT_EQ(parsed->meta.app_name, "lmp_bw");  // basename of argv[0]
  EXPECT_EQ(parsed->meta.nprocs, 32u);
  // Two records: the MPI-IO record 777 and the POSIX record 555 (distinct
  // record ids, so no aliasing).
  ASSERT_EQ(parsed->files.size(), 2u);
  const auto& mpiio = parsed->files[0];
  EXPECT_EQ(mpiio.file_id, 777u);
  EXPECT_EQ(mpiio.opens, 32u);
  const auto& posix = parsed->files[1];
  EXPECT_EQ(posix.file_id, 555u);
  EXPECT_EQ(posix.bytes_read, 1048576u);
  // No POSIX_CLOSES in upstream output: closes default to opens.
  EXPECT_EQ(posix.closes, 32u);
}

TEST(TextFormat, MpiioAliasedPosixRecordDropped) {
  // The same file instrumented at both layers: one MPI-IO record and one
  // POSIX record with the same record id. Keeping both would double count
  // every byte; the MPI-IO view wins.
  const std::string text =
      "# run time: 100\n"
      "MPI-IO\t-1\t42\tMPIIO_COLL_OPENS\t64\t/data\t/scr\tlustre\n"
      "MPI-IO\t-1\t42\tMPIIO_INDEP_OPENS\t4\t/data\t/scr\tlustre\n"
      "MPI-IO\t-1\t42\tMPIIO_BYTES_WRITTEN\t1000000\t/data\t/scr\tlustre\n"
      "MPI-IO\t-1\t42\tMPIIO_COLL_WRITES\t64\t/data\t/scr\tlustre\n"
      "MPI-IO\t-1\t42\tMPIIO_F_OPEN_START_TIMESTAMP\t1\t/data\t/scr\tl\n"
      "MPI-IO\t-1\t42\tMPIIO_F_CLOSE_END_TIMESTAMP\t90\t/data\t/scr\tl\n"
      "MPI-IO\t-1\t42\tMPIIO_F_WRITE_START_TIMESTAMP\t2\t/data\t/scr\tl\n"
      "MPI-IO\t-1\t42\tMPIIO_F_WRITE_END_TIMESTAMP\t89\t/data\t/scr\tl\n"
      "POSIX\t-1\t42\tPOSIX_OPENS\t64\t/data\t/scr\tlustre\n"
      "POSIX\t-1\t42\tPOSIX_BYTES_WRITTEN\t1000000\t/data\t/scr\tlustre\n"
      "POSIX\t-1\t42\tPOSIX_WRITES\t640\t/data\t/scr\tlustre\n";
  const auto parsed = parse_text(text);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
  ASSERT_EQ(parsed->files.size(), 1u);
  const auto& record = parsed->files[0];
  // INDEP + COLL opens accumulate.
  EXPECT_EQ(record.opens, 68u);
  EXPECT_EQ(record.writes, 64u);
  EXPECT_EQ(record.bytes_written, 1000000u);
  // The total is NOT double counted.
  EXPECT_EQ(parsed->total_bytes_written(), 1000000u);
}

TEST(TextFormat, StdioRecordsParsedAlongsidePosix) {
  const std::string text =
      "# run time: 50\n"
      "STDIO\t0\t7\tSTDIO_OPENS\t1\t<STDOUT>\t/\tNA\n"
      "STDIO\t0\t7\tSTDIO_WRITES\t200\t<STDOUT>\t/\tNA\n"
      "STDIO\t0\t7\tSTDIO_BYTES_WRITTEN\t4096\t<STDOUT>\t/\tNA\n"
      "STDIO\t0\t7\tSTDIO_F_OPEN_START_TIMESTAMP\t0\t<STDOUT>\t/\tNA\n"
      "STDIO\t0\t7\tSTDIO_F_CLOSE_END_TIMESTAMP\t49\t<STDOUT>\t/\tNA\n"
      "STDIO\t0\t7\tSTDIO_F_WRITE_START_TIMESTAMP\t1\t<STDOUT>\t/\tNA\n"
      "STDIO\t0\t7\tSTDIO_F_WRITE_END_TIMESTAMP\t48\t<STDOUT>\t/\tNA\n"
      "POSIX\t0\t9\tPOSIX_OPENS\t1\t/log\t/scr\tlustre\n"
      "POSIX\t0\t9\tPOSIX_BYTES_READ\t2048\t/log\t/scr\tlustre\n"
      "POSIX\t0\t9\tPOSIX_READS\t2\t/log\t/scr\tlustre\n";
  const auto parsed = parse_text(text);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
  ASSERT_EQ(parsed->files.size(), 2u);  // STDIO never aliases POSIX
  EXPECT_EQ(parsed->total_bytes_written(), 4096u);
  EXPECT_EQ(parsed->total_bytes_read(), 2048u);
}

TEST(TextFormat, MissingRunTimeFails) {
  const auto parsed = parse_text("# nprocs: 4\n");
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().code, util::ErrorCode::kParseError);
}

TEST(TextFormat, MalformedRowFails) {
  const std::string text =
      "# run time: 10\n"
      "POSIX\t-1\tnot_a_number\tPOSIX_OPENS\t1\t/f\n";
  const auto parsed = parse_text(text);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().code, util::ErrorCode::kParseError);
  EXPECT_EQ(parsed.error().message, "line 2: bad numeric field");
}

TEST(TextFormat, ShortRowFails) {
  const std::string text =
      "# run time: 10\n"
      "POSIX\t-1\t5\n";
  const auto parsed = parse_text(text);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().code, util::ErrorCode::kParseError);
  EXPECT_EQ(parsed.error().message, "line 2: expected >=5 fields, got 3");
}

TEST(TextFormat, OutOfRangeCounterOrRankIsAParseError) {
  // A count is stored as uint64_t and a rank as int32_t, so a value that
  // does not fit is a bad field, not a cast: a NaN count would otherwise
  // read as any number, and rank 2^32 would merge into rank 0's record.
  const std::string head =
      "# run time: 10\n"
      "POSIX\t0\t5\tPOSIX_SEEKS\t1\t/f\n";
  for (const char* row : {
           "POSIX\t0\t5\tPOSIX_OPENS\tnan\t/f\n",
           "POSIX\t0\t5\tPOSIX_OPENS\t-nan\t/f\n",
           "POSIX\t0\t5\tPOSIX_BYTES_READ\tinf\t/f\n",
           "POSIX\t0\t5\tPOSIX_BYTES_WRITTEN\t1e30\t/f\n",
           "POSIX\t0\t5\tPOSIX_READS\t18446744073709551616\t/f\n",
           "MPI-IO\t0\t5\tMPIIO_COLL_OPENS\tnan\t/f\n",
           "POSIX\t4294967296\t5\tPOSIX_OPENS\t1\t/f\n",
           "POSIX\t-2147483649\t5\tPOSIX_OPENS\t1\t/f\n",
           "POSIX\t2147483648\t5\tPOSIX_FDSYNCS\t1\t/f\n",
       }) {
    const auto parsed = parse_text(head + row);
    ASSERT_FALSE(parsed.has_value()) << row;
    EXPECT_EQ(parsed.error().code, util::ErrorCode::kParseError) << row;
    EXPECT_EQ(parsed.error().message, "line 3: bad numeric field") << row;
  }

  // Still accepted: timestamps keep NaN (validation evicts the trace as a
  // non-finite value), negative counts clamp to 0, the largest double below
  // 2^64 and both int32_t extremes fit, and a skipped counter stores nothing.
  const auto parsed = parse_text(
      head +
      "POSIX\t2147483647\t5\tPOSIX_F_OPEN_START_TIMESTAMP\tnan\t/g\n"
      "POSIX\t2147483647\t5\tPOSIX_OPENS\t-inf\t/g\n"
      "POSIX\t2147483647\t5\tPOSIX_BYTES_READ\t18446744073709549568\t/g\n"
      "POSIX\t-2147483648\t6\tPOSIX_FDSYNCS\tnan\t/h\n"
      "POSIX\t-2147483648\t6\tPOSIX_WRITES\t-2\t/h\n");
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
  ASSERT_EQ(parsed->files.size(), 3u);
  const auto& big = parsed->files[1];
  EXPECT_EQ(big.rank, 2147483647);
  EXPECT_TRUE(std::isnan(big.open_ts));
  EXPECT_EQ(big.opens, 0u);
  EXPECT_EQ(big.bytes_read, 18446744073709549568ull);
  const auto& low = parsed->files[2];
  EXPECT_EQ(low.rank, -2147483647 - 1);
  EXPECT_EQ(low.file_name, "/h");
  EXPECT_EQ(low.writes, 0u);
}

TEST(TextFormat, OutOfRangeNprocsIsAParseError) {
  // nprocs is stored as uint32_t: 2^32 would read as 0 ranks and 2^32 + 1
  // as 1, so a count that does not fit is a bad field on its own line.
  const std::string tail =
      "# run time: 10\n"
      "POSIX\t0\t5\tPOSIX_OPENS\t1\t/f\n";
  for (const char* header : {
           "# nprocs: 4294967296\n",
           "# nprocs: 4294967297\n",
           "# nprocs: 18446744073709551615\n",
           "# nprocs: 18446744073709551616\n",
           "#   nprocs :  99999999999999999999999  \n",
       }) {
    const auto parsed = parse_text("# exe: /bin/app\n" + std::string(header) +
                                   tail);
    ASSERT_FALSE(parsed.has_value()) << header;
    EXPECT_EQ(parsed.error().code, util::ErrorCode::kParseError) << header;
    EXPECT_EQ(parsed.error().message, "line 2: bad numeric field") << header;
  }

  // The largest count that fits is kept; a value that is not a number is
  // still ignored and leaves the default.
  const auto largest = parse_text("# nprocs: 4294967295\n" + tail);
  ASSERT_TRUE(largest.has_value()) << largest.error().to_string();
  EXPECT_EQ(largest->meta.nprocs, 4294967295u);
  const std::uint32_t fallback = trace::Trace{}.meta.nprocs;
  for (const char* header : {"# nprocs: -1\n", "# nprocs: 12abc\n",
                             "# nprocs: 0x10\n", "# nprocs:\n",
                             "# nprocs: 1e3\n"}) {
    const auto parsed = parse_text(std::string(header) + tail);
    ASSERT_TRUE(parsed.has_value()) << header;
    EXPECT_EQ(parsed->meta.nprocs, fallback) << header;
  }
}

TEST(TextFormat, ExpiredDeadlineStopsAtLine4096) {
  // The parser reads the clock once every 4096 lines, so an expired
  // deadline stops a long document at line 4096, not at line 1 or its end.
  std::string text = "# run time: 10\n";
  for (int line = 2; line <= 5000; ++line) {
    text += "POSIX\t0\t5\tPOSIX_OPENS\t1\t/f\n";
  }
  const auto parsed = parse_text(text, util::Deadline::after_seconds(0));
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().code, util::ErrorCode::kTimeout);
  EXPECT_EQ(parsed.error().message, "parse deadline exceeded at line 4096");
  EXPECT_TRUE(parse_text(text).has_value());
}

TEST(TextFormat, PerRankRecordsStayDistinct) {
  const std::string text =
      "# run time: 50\n"
      "POSIX\t0\t99\tPOSIX_OPENS\t1\t/f\n"
      "POSIX\t1\t99\tPOSIX_OPENS\t1\t/f\n";
  const auto parsed = parse_text(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->files.size(), 2u);  // same file id, different ranks
}

TEST(TextFormat, FileRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "mosaic_test_trace.txt").string();
  const trace::Trace original = make_trace();
  ASSERT_TRUE(write_text_file(original, path).ok());
  const auto loaded = ingest::load_trace(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->meta.job_id, original.meta.job_id);
  EXPECT_EQ(loaded->files.size(), original.files.size());
  std::filesystem::remove(path);
}

TEST(TextFormat, MissingFileIsNotFoundUnreadableIsIoError) {
  // Text traces load through ingest::load_trace, which keeps the funnel's
  // split: a missing file is not-found, an existing path it cannot read
  // (here a directory) is the retryable io-error.
  ingest::IngestOptions options;
  options.max_retries = 0;
  const auto missing =
      ingest::load_trace("/nonexistent/path/file.txt", options);
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code, util::ErrorCode::kNotFound);

  const auto dir =
      std::filesystem::temp_directory_path() / "mosaic_unreadable_trace.txt";
  std::filesystem::create_directories(dir);
  const auto unreadable = ingest::load_trace(dir.string(), options);
  std::filesystem::remove_all(dir);
  ASSERT_FALSE(unreadable.has_value());
  EXPECT_EQ(unreadable.error().code, util::ErrorCode::kIoError);
}

}  // namespace
}  // namespace mosaic::darshan
