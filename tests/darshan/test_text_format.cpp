#include "darshan/text_format.hpp"

#include <gtest/gtest.h>

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
  EXPECT_FALSE(parse_text(text).has_value());
}

TEST(TextFormat, ShortRowFails) {
  const std::string text =
      "# run time: 10\n"
      "POSIX\t-1\t5\n";
  EXPECT_FALSE(parse_text(text).has_value());
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
