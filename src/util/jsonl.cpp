#include "util/jsonl.hpp"

#include <filesystem>
#include <fstream>

#include "util/strings.hpp"

namespace mosaic::util {

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

}  // namespace mosaic::util
