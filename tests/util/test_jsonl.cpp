// The shared JSON Lines reader (util/jsonl.hpp) every JSONL artifact is
// read back with (provenance, truth): blank lines are skipped, a trailing
// '\r' is stripped, and a rejected line fails the read naming `path:line`.
#include "util/jsonl.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "json/json.hpp"

namespace mosaic::util {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "mosaic_jsonl_test";
  fs::create_directories(dir);
  return (dir / name).string();
}

/// Reads `path` strictly, collecting the lines that parse as JSON.
Status read_json_lines(const std::string& path,
                       std::vector<std::string>& seen) {
  return read_lines(path, [&seen](std::string_view line) -> Status {
    if (!json::parse(line).has_value()) {
      return Error{ErrorCode::kParseError, "not JSON"};
    }
    seen.emplace_back(line);
    return Status::success();
  });
}

TEST(JsonlLines, CrlfLineEndingsReadCleanly) {
  // A file that passed through a CRLF-normalizing transfer (git autocrlf,
  // SMB mount, Windows editor) must still read: the trailing '\r' is
  // payload to getline and used to poison every line's JSON.
  const std::string path = temp_path("crlf.jsonl");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "{\"path\":\"/a.txt\"}\r\n{\"path\":\"/b.txt\"}\r\n";
  }
  std::vector<std::string> seen;
  const Status status = read_json_lines(path, seen);
  EXPECT_TRUE(status.ok()) << status.error().to_string();
  EXPECT_EQ(seen, (std::vector<std::string>{R"({"path":"/a.txt"})",
                                            R"({"path":"/b.txt"})"}));
  fs::remove(path);
}

TEST(JsonlLines, MissingFileIsNotFound) {
  const std::string path = temp_path("absent.jsonl");
  fs::remove(path);
  const Status status =
      read_lines(path, [](std::string_view) { return Status::success(); });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kNotFound);
}

TEST(JsonlLines, StrictReadSkipsBlankLinesAndNamesTheFailingLine) {
  const std::string path = temp_path("strict.jsonl");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "{\"n\":1}\n\n   \n{\"n\":2}\nnot json\n{\"n\":3}\n";
  }
  std::vector<std::string> seen;
  const Status status = read_json_lines(path, seen);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kParseError);
  // Blank lines still count toward the line number an operator looks up.
  EXPECT_EQ(status.error().message, path + ":5: not JSON");
  EXPECT_EQ(seen.size(), 2u);  // stops at the first bad line
  fs::remove(path);
}

}  // namespace
}  // namespace mosaic::util
