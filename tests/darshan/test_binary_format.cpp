#include "darshan/binary_format.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

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

TEST(Fnv1aLanes, MatchesScalarPerInput) {
  // Every length from 0 to 64 and a few KB, each a different walk through
  // the byte values, so a lane that mixes up lengths, positions or bytes
  // shows.
  std::vector<std::vector<std::byte>> inputs;
  std::vector<std::size_t> lengths;
  for (std::size_t length = 0; length <= 64; ++length) lengths.push_back(length);
  for (const std::size_t length : {255u, 256u, 1000u, 2149u, 4096u, 4099u}) {
    lengths.push_back(length);
  }
  for (const std::size_t length : lengths) {
    std::vector<std::byte> bytes(length);
    for (std::size_t i = 0; i < length; ++i) {
      bytes[i] = static_cast<std::byte>((i * 167 + length * 31) & 0xFF);
    }
    inputs.push_back(std::move(bytes));
  }
  // Every byte value alone, four to a group.
  for (int value = 0; value < 256; ++value) {
    inputs.push_back({static_cast<std::byte>(value)});
  }
  std::vector<std::span<const std::byte>> views(inputs.begin(), inputs.end());

  const auto check = [](std::span<const std::span<const std::byte>> group) {
    const auto lanes = fnv1a_lanes(group);
    for (std::size_t i = 0; i < kFnvLanes; ++i) {
      EXPECT_EQ(lanes[i], i < group.size() ? fnv1a(group[i]) : 0u)
          << "lane " << i << " of a group of " << group.size()
          << (i < group.size() ? ", length " + std::to_string(group[i].size())
                               : std::string());
    }
  };
  // Groups of 0 to 4 neighbouring inputs: equal and unequal lengths, the
  // shortest in every lane.
  for (std::size_t size = 0; size <= kFnvLanes; ++size) {
    for (std::size_t first = 0; first + size <= views.size(); ++first) {
      check(std::span(views).subspan(first, size));
    }
  }
  // Long and empty inputs in every lane position, and reversed lengths.
  const std::span<const std::byte> longest = views[lengths.size() - 1];
  const std::span<const std::byte> empty = views[0];
  for (std::size_t at = 0; at < kFnvLanes; ++at) {
    std::vector<std::span<const std::byte>> group(kFnvLanes, empty);
    group[at] = longest;
    check(group);
    std::fill(group.begin(), group.end(), longest);
    group[at] = empty;
    check(group);
  }
  check(std::vector<std::span<const std::byte>>{views[70], views[64], views[9],
                                                views[1]});
  EXPECT_EQ(fnv1a_lanes({})[0], 0u);
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

TEST(TraceIo, ScanSortsAsJoinedPathsCompare) {
  // The scan sorts names on an 8-byte key after their shared prefix and
  // then on the bytes: names that agree past the key, end inside it, are
  // prefixes of each other or hold bytes above 0x7F must come out in the
  // order of sorting the joined paths.
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "mosaic_scan_order";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<std::string> names = {
      "job_0.mbt",          "job_0.txt",          "job_00.mbt",
      "job_0000000000.mbt", "job_00000000000.mbt", "job_0000000001.txt",
      "job_000000000.txt",  "job_1.mbt",          "job_10.mbt",
      "job_9.darshan.txt",  "job_\xc3\xa9.mbt",   "job_\x7f.mbt",
      "job_A.mbt",          "job_a.mbt",          "job_.mbt",
      "job_0000000000x.mbt"};
  for (const std::string& name : names) {
    ASSERT_TRUE(write_mbt_file(make_trace(), (dir / name).string()).ok());
  }
  std::vector<std::string> expected;
  for (const std::string& name : names) expected.push_back((dir / name).string());
  std::sort(expected.begin(), expected.end());
  for (const std::string& input : {dir.string(), dir.string() + "/"}) {
    const auto scan = scan_trace_dir(input);
    ASSERT_TRUE(scan.has_value());
    EXPECT_EQ(*scan, expected) << input;
  }
  fs::remove_all(dir);
}

TEST(ExpandTracePaths, ListsDirectoriesAndKeepsFilePaths) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "mosaic_expand";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ASSERT_TRUE(write_mbt_file(make_trace(), (dir / "b.mbt").string()).ok());
  ASSERT_TRUE(write_mbt_file(make_trace(), (dir / "a.txt").string()).ok());
  ASSERT_TRUE(write_mbt_file(make_trace(), (dir / "notes.md").string()).ok());
  // Entries are kept as directory_entry::is_regular_file decides: a
  // symlinked trace stays in; a dangling link, a link to a directory and a
  // directory named like a trace stay out. So does a symlink loop, which
  // is_regular_file reported by throwing.
  fs::create_symlink(dir / "b.mbt", dir / "c_link.mbt");
  fs::create_symlink(dir / "gone.mbt", dir / "d_dangling.mbt");
  fs::create_directories(dir / "e_dir.mbt");
  fs::create_directory_symlink(dir / "e_dir.mbt", dir / "f_dirlink.txt");
  fs::create_symlink(dir / "g_loop.mbt", dir / "g_loop.mbt");

  // A missing file stays in the list: it is a per-file not-found eviction.
  // A trailing slash joins as std::filesystem joins: "dir/name".
  const auto paths = expand_trace_paths(
      {"/definitely/not/here.mbt", dir.string(), dir.string() + "/"});
  fs::remove_all(dir);
  ASSERT_TRUE(paths.has_value());
  const std::vector<std::string> listing = {(dir / "a.txt").string(),
                                            (dir / "b.mbt").string(),
                                            (dir / "c_link.mbt").string()};
  std::vector<std::string> expected = {"/definitely/not/here.mbt"};
  expected.insert(expected.end(), listing.begin(), listing.end());
  expected.insert(expected.end(), listing.begin(), listing.end());
  EXPECT_EQ(*paths, expected);
}

TEST(ExpandTracePaths, UnlistableDirectoryIsAnError) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "mosaic_expand_unlistable";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ASSERT_TRUE(write_mbt_file(make_trace(), (dir / "a.mbt").string()).ok());
  fs::permissions(dir, fs::perms::none);
  std::error_code unlistable;
  (void)fs::directory_iterator(dir, unlistable);
  const auto paths = expand_trace_paths({dir.string()});
  fs::permissions(dir, fs::perms::owner_all);
  fs::remove_all(dir);
  if (!unlistable) GTEST_SKIP() << "root can list a mode-000 directory";
  ASSERT_FALSE(paths.has_value());
  EXPECT_EQ(paths.error().code, util::ErrorCode::kIoError);
}

}  // namespace
}  // namespace mosaic::darshan
