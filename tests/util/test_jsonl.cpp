// The shared JSON Lines layer (util/jsonl.hpp): the appender every resume
// journal writes through and the line reader every JSONL file is read back
// with, under both policies — a journal skips and counts a bad line (torn
// tail, garbage) and reads a missing file as empty; a strict reader
// (provenance, truth) fails naming `path:line`.
#include "util/jsonl.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
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

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Reads `path` under the journal policy with the journals' acceptor (a
/// line is an entry when it parses as a JSON object), collecting the
/// accepted lines in file order.
std::vector<std::string> journal_lines(const std::string& path,
                                       std::size_t* dropped) {
  std::vector<std::string> lines;
  const Status status = read_journal_lines(
      path,
      [&lines](std::string_view line) {
        const auto parsed = json::parse(line);
        if (!parsed.has_value() || !parsed->is_object()) return false;
        lines.emplace_back(line);
        return true;
      },
      dropped);
  EXPECT_TRUE(status.ok()) << status.error().to_string();
  return lines;
}

TEST(Journal, TornTailAndGarbageLinesAreDropped) {
  const std::string path = temp_path("torn.jsonl");
  fs::remove(path);
  {
    LineAppender appender;
    ASSERT_TRUE(appender.open(path).ok());
    ASSERT_TRUE(appender.append(R"({"path":"/a.txt"})").ok());
    ASSERT_TRUE(appender.append(R"({"path":"/b.txt"})").ok());
  }
  {
    std::ofstream tail(path, std::ios::app);
    tail << "not json at all\n";
    tail << R"({"path":"/c.txt","valid":tr)";  // torn mid-append, no newline
  }

  std::size_t dropped = 0;
  EXPECT_EQ(journal_lines(path, &dropped),
            (std::vector<std::string>{R"({"path":"/a.txt"})",
                                      R"({"path":"/b.txt"})"}));
  EXPECT_EQ(dropped, 2u);
  fs::remove(path);
}

TEST(Journal, CrlfLineEndingsReplayCleanly) {
  // A journal that passed through a CRLF-normalizing transfer (git
  // autocrlf, SMB mount, Windows editor) must still replay: the trailing
  // '\r' is payload to getline and used to poison every line's JSON. The
  // torn-line counter must count exactly the one torn line, not the CRLF
  // ones.
  const std::string path = temp_path("crlf.jsonl");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "{\"path\":\"/a.txt\"}\r\n{\"path\":\"/b.txt\"}\r\n"
           "{\"path\":\"/c.txt\",\"valid\":tr\r\n";
  }

  std::size_t dropped = 0;
  EXPECT_EQ(journal_lines(path, &dropped),
            (std::vector<std::string>{R"({"path":"/a.txt"})",
                                      R"({"path":"/b.txt"})"}));
  EXPECT_EQ(dropped, 1u);
  fs::remove(path);
}

TEST(JsonlLines, MissingFileIsAnEmptyJournalButNotFoundWhenStrict) {
  const std::string path = temp_path("absent.jsonl");
  fs::remove(path);

  // Resuming with no journal is a fresh start, not an error.
  std::size_t dropped = 7;
  EXPECT_TRUE(journal_lines(path, &dropped).empty());
  EXPECT_EQ(dropped, 0u);

  const Status strict =
      read_lines(path, [](std::string_view) { return Status::success(); });
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.error().code, ErrorCode::kNotFound);
}

TEST(JsonlLines, StrictReadSkipsBlankLinesAndNamesTheFailingLine) {
  const std::string path = temp_path("strict.jsonl");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "{\"n\":1}\n\n   \n{\"n\":2}\nnot json\n{\"n\":3}\n";
  }
  std::vector<std::string> seen;
  const Status status =
      read_lines(path, [&seen](std::string_view line) -> Status {
        if (!json::parse(line).has_value()) {
          return Error{ErrorCode::kParseError, "not JSON"};
        }
        seen.emplace_back(line);
        return Status::success();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kParseError);
  // Blank lines still count toward the line number an operator looks up.
  EXPECT_EQ(status.error().message, path + ":5: not JSON");
  EXPECT_EQ(seen.size(), 2u);  // stops at the first bad line
  fs::remove(path);
}

TEST(JsonlLines, AppenderAppendsAcrossReopensAndIsANoOpWhenClosed) {
  const std::string path = temp_path("append.jsonl");
  fs::remove(path);
  LineAppender appender;
  EXPECT_FALSE(appender.is_open());
  EXPECT_TRUE(appender.append("ignored").ok());  // journaling disabled
  ASSERT_TRUE(appender.open(path).ok());
  ASSERT_TRUE(appender.append(R"({"n":1})").ok());
  appender.close();
  // A resumed run appends to its journal; it never truncates it.
  ASSERT_TRUE(appender.open(path).ok());
  ASSERT_TRUE(appender.append(R"({"n":2})").ok());
  appender.close();
  EXPECT_EQ(slurp(path), "{\"n\":1}\n{\"n\":2}\n");

  EXPECT_FALSE(appender.open(temp_path("no/such/dir/x.jsonl")).ok());
  fs::remove(path);
}

TEST(JsonlLines, DeferredLinesReachTheFileAtFlush) {
  // The ingest fold defers its journal lines and flushes once per batch;
  // a line appended with the default policy is on disk at once.
  const std::string path = temp_path("deferred.jsonl");
  fs::remove(path);
  LineAppender appender;
  EXPECT_TRUE(appender.flush().ok());  // closed: a no-op
  ASSERT_TRUE(appender.open(path).ok());
  ASSERT_TRUE(
      appender.append(R"({"n":1})", LineAppender::Flush::kDeferred).ok());
  ASSERT_TRUE(
      appender.append(R"({"n":2})", LineAppender::Flush::kDeferred).ok());
  EXPECT_EQ(slurp(path), "");
  ASSERT_TRUE(appender.flush().ok());
  EXPECT_EQ(slurp(path), "{\"n\":1}\n{\"n\":2}\n");
  ASSERT_TRUE(appender.append(R"({"n":3})").ok());
  EXPECT_EQ(slurp(path), "{\"n\":1}\n{\"n\":2}\n{\"n\":3}\n");
  appender.close();
  fs::remove(path);
}

}  // namespace
}  // namespace mosaic::util
