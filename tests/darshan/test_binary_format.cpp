#include "darshan/binary_format.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "darshan/io.hpp"
#include "ingest/ingest.hpp"

namespace mosaic::darshan {
namespace {

trace::Trace make_trace() {
  trace::Trace t;
  t.meta.job_id = 424242;
  t.meta.app_name = "vasp";
  t.meta.user = "u77";
  t.meta.nprocs = 256;
  t.meta.start_time = 1.6e9;
  t.meta.run_time = 7200.0;
  for (int i = 0; i < 3; ++i) {
    trace::FileRecord file;
    file.file_id = 1000u + static_cast<unsigned>(i);
    file.file_name = "/scratch/u77/out_" + std::to_string(i);
    file.rank = i == 0 ? trace::kSharedRank : i;
    file.bytes_written = 1u << (20 + i);
    file.writes = 10;
    file.opens = 4;
    file.closes = 4;
    file.seeks = 1;
    file.open_ts = 10.0 * i;
    file.close_ts = 10.0 * i + 100.0;
    file.first_write_ts = 10.0 * i + 1.0;
    file.last_write_ts = 10.0 * i + 99.0;
    t.files.push_back(file);
  }
  return t;
}

TEST(Fnv1a, KnownVectors) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(fnv1a(std::string_view("")), 0xCBF29CE484222325ull);
  EXPECT_EQ(fnv1a(std::string_view("a")), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(fnv1a(std::string_view("foobar")), 0x85944171F73967E8ull);
}

TEST(Mbt, RoundTripPreservesEverything) {
  const trace::Trace original = make_trace();
  const auto bytes = to_mbt(original);
  const auto parsed = parse_mbt(bytes);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
  EXPECT_EQ(parsed->meta.job_id, original.meta.job_id);
  EXPECT_EQ(parsed->meta.app_name, original.meta.app_name);
  EXPECT_EQ(parsed->meta.user, original.meta.user);
  EXPECT_EQ(parsed->meta.nprocs, original.meta.nprocs);
  EXPECT_DOUBLE_EQ(parsed->meta.run_time, original.meta.run_time);
  ASSERT_EQ(parsed->files.size(), original.files.size());
  for (std::size_t i = 0; i < parsed->files.size(); ++i) {
    EXPECT_EQ(parsed->files[i].file_id, original.files[i].file_id);
    EXPECT_EQ(parsed->files[i].file_name, original.files[i].file_name);
    EXPECT_EQ(parsed->files[i].rank, original.files[i].rank);
    EXPECT_EQ(parsed->files[i].bytes_written, original.files[i].bytes_written);
    EXPECT_DOUBLE_EQ(parsed->files[i].open_ts, original.files[i].open_ts);
    EXPECT_DOUBLE_EQ(parsed->files[i].last_write_ts,
                     original.files[i].last_write_ts);
  }
}

TEST(Mbt, EmptyTraceRoundTrips) {
  trace::Trace t;
  t.meta.run_time = 1.0;
  const auto parsed = parse_mbt(to_mbt(t));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->files.empty());
}

TEST(Mbt, DetectsBitFlip) {
  auto bytes = to_mbt(make_trace());
  bytes[bytes.size() / 2] ^= std::byte{0x01};
  const auto parsed = parse_mbt(bytes);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().code, util::ErrorCode::kCorruptTrace);
  EXPECT_NE(parsed.error().message.find("checksum"), std::string::npos);
}

TEST(Mbt, DetectsTruncation) {
  const auto bytes = to_mbt(make_trace());
  const std::span<const std::byte> truncated{bytes.data(), bytes.size() - 16};
  EXPECT_FALSE(parse_mbt(truncated).has_value());
}

TEST(Mbt, DetectsBadMagic) {
  auto bytes = to_mbt(make_trace());
  bytes[0] = std::byte{'X'};
  const auto parsed = parse_mbt(bytes);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_NE(parsed.error().message.find("magic"), std::string::npos);
}

TEST(Mbt, RejectsTinyBuffers) {
  const std::vector<std::byte> tiny(4);
  EXPECT_FALSE(parse_mbt(tiny).has_value());
  EXPECT_FALSE(parse_mbt({}).has_value());
}

TEST(Mbt, FileRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "mosaic_test.mbt").string();
  const trace::Trace original = make_trace();
  ASSERT_TRUE(write_mbt_file(original, path).ok());
  const auto loaded = ingest::load_trace(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->meta.job_id, original.meta.job_id);
  std::filesystem::remove(path);
}

TEST(TraceIo, DispatchesByExtension) {
  const auto dir = std::filesystem::temp_directory_path() / "mosaic_io_test";
  std::filesystem::create_directories(dir);
  const trace::Trace original = make_trace();
  ASSERT_TRUE(write_mbt_file(original, (dir / "a.mbt").string()).ok());

  const auto loaded = ingest::load_trace((dir / "a.mbt").string());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->meta.job_id, original.meta.job_id);

  const auto scan = scan_trace_dir(dir.string());
  ASSERT_TRUE(scan.has_value());
  ASSERT_EQ(scan->size(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(TraceIo, ScanMissingDirectoryFails) {
  const auto scan = scan_trace_dir("/definitely/not/here");
  ASSERT_FALSE(scan.has_value());
  EXPECT_EQ(scan.error().code, util::ErrorCode::kNotFound);
}

}  // namespace
}  // namespace mosaic::darshan
