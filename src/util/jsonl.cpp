#include "util/jsonl.hpp"

#include <filesystem>
#include <fstream>

#include "util/strings.hpp"

namespace mosaic::util {

LineAppender::~LineAppender() { close(); }

Status LineAppender::open(const std::string& path) {
  close();
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return Error{ErrorCode::kIoError, "cannot open " + path + " to append"};
  }
  path_ = path;
  return Status::success();
}

Status LineAppender::append(std::string_view line, Flush when) {
  if (file_ == nullptr) return Status::success();
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fputc('\n', file_) == EOF) {
    return Error{ErrorCode::kIoError, "append to " + path_ + " failed"};
  }
  return when == Flush::kNow ? flush() : Status::success();
}

Status LineAppender::flush() {
  if (file_ == nullptr || std::fflush(file_) == 0) return Status::success();
  return Error{ErrorCode::kIoError, "append to " + path_ + " failed"};
}

void LineAppender::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status read_lines(const std::string& path,
                  const std::function<Status(std::string_view line)>& visit) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::error_code ec;
    return Error{std::filesystem::exists(path, ec) ? ErrorCode::kIoError
                                                   : ErrorCode::kNotFound,
                 "cannot open " + path};
  }
  std::string line;
  for (std::size_t number = 1; std::getline(in, line); ++number) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (trim(line).empty()) continue;
    if (const Status status = visit(line); !status.ok()) {
      return Error{status.error().code, path + ":" + std::to_string(number) +
                                            ": " + status.error().message};
    }
  }
  if (in.bad()) return Error{ErrorCode::kIoError, "read failure on " + path};
  return Status::success();
}

Status read_journal_lines(
    const std::string& path,
    const std::function<bool(std::string_view line)>& accept,
    std::size_t* dropped_lines) {
  std::size_t dropped = 0;
  const Status status = read_lines(path, [&](std::string_view line) {
    if (!accept(line)) ++dropped;
    return Status::success();
  });
  if (dropped_lines != nullptr) *dropped_lines = dropped;
  if (!status.ok() && status.error().code != ErrorCode::kNotFound) {
    return status;
  }
  return Status::success();
}

}  // namespace mosaic::util
