#include "ingest/reader.hpp"

#include <limits>

#include "darshan/binary_format.hpp"
#include "darshan/text_format.hpp"
#include "util/backoff.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace mosaic::ingest {

using util::Error;
using util::ErrorCode;
using util::Expected;

Expected<util::MappedFile> FileReader::read_mapped(const std::string& path,
                                                   int attempt) {
  auto bytes = read(path, attempt);
  if (!bytes.has_value()) return std::move(bytes).error();
  return util::MappedFile::from_buffer(std::move(bytes).value());
}

Expected<std::vector<std::byte>> SystemFileReader::read(const std::string& path,
                                                        int /*attempt*/) {
  return util::read_file(path);
}

FileReader& system_reader() {
  static SystemFileReader reader;
  return reader;
}

Expected<FaultSpec> FaultSpec::parse(std::string_view text) {
  FaultSpec spec;
  for (const std::string_view field : util::split(text, ',')) {
    const std::string_view trimmed = util::trim(field);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      return Error{ErrorCode::kInvalidArgument,
                   "fault spec field '" + std::string(trimmed) +
                       "' is not key=value"};
    }
    const std::string_view key = util::trim(trimmed.substr(0, eq));
    const std::string_view value = util::trim(trimmed.substr(eq + 1));
    // Integer fields get integer parsers: going through parse_double and a
    // cast silently rounds seeds above 2^53 (changing the fault pattern
    // between runs that think they share a seed) and accepts fractional
    // retry counts.
    if (key == "seed") {
      const auto seed = util::parse_uint(value);
      if (!seed.has_value()) {
        return Error{ErrorCode::kInvalidArgument,
                     "fault spec seed '" + std::string(value) +
                         "' is not an unsigned integer"};
      }
      spec.seed = *seed;
      continue;
    }
    if (key == "eio_failures") {
      const auto failures = util::parse_int(value);
      if (!failures.has_value() || *failures < 0 ||
          *failures > std::numeric_limits<int>::max()) {
        return Error{ErrorCode::kInvalidArgument,
                     "fault spec eio_failures '" + std::string(value) +
                         "' is not a non-negative integer"};
      }
      spec.transient_eio_failures = static_cast<int>(*failures);
      continue;
    }
    const auto number = util::parse_double(value);
    if (!number.has_value()) {
      return Error{ErrorCode::kInvalidArgument,
                   "fault spec value '" + std::string(value) +
                       "' is not numeric"};
    }
    if (key == "eio") {
      spec.transient_eio_probability = *number;
    } else if (key == "eio_permanent") {
      spec.permanent_eio_probability = *number;
    } else if (key == "short") {
      spec.short_read_probability = *number;
    } else if (key == "flip") {
      spec.bitflip_probability = *number;
    } else if (key == "delay") {
      spec.delay_probability = *number;
    } else if (key == "delay_ms") {
      spec.delay_ms = *number;
    } else {
      return Error{ErrorCode::kInvalidArgument,
                   "unknown fault spec key '" + std::string(key) + "'"};
    }
  }
  return spec;
}

Expected<std::vector<std::byte>> FaultyFileReader::read(const std::string& path,
                                                        int attempt) {
  // One splitmix64 stream per (seed, path): the n-th draw always answers the
  // same question, so a file's fault profile is stable across runs, retries
  // and scan orders.
  std::uint64_t stream = spec_.seed ^ darshan::fnv1a(std::string_view(path));
  const auto draw = [&stream] {
    // 53-bit mantissa conversion, same construction Rng::uniform uses.
    return static_cast<double>(util::splitmix64(stream) >> 11) * 0x1.0p-53;
  };
  const bool delayed = draw() < spec_.delay_probability;
  const bool permanent_eio = draw() < spec_.permanent_eio_probability;
  const bool transient_eio = draw() < spec_.transient_eio_probability;
  const bool short_read = draw() < spec_.short_read_probability;
  const bool bitflip = draw() < spec_.bitflip_probability;
  const double cut_fraction = draw();
  const double flip_position = draw();

  if (delayed) util::sleep_for_ms(spec_.delay_ms);
  if (permanent_eio) {
    return Error{ErrorCode::kIoError, "injected permanent EIO on " + path};
  }
  if (transient_eio && attempt < spec_.transient_eio_failures) {
    return Error{ErrorCode::kIoError,
                 "injected transient EIO on " + path + " (attempt " +
                     std::to_string(attempt) + ")"};
  }

  auto bytes = base_->read(path, attempt);
  if (!bytes.has_value()) return bytes;

  if (short_read && !bytes->empty()) {
    // Keep at least one byte so the result is a torn file, not an empty one.
    const auto kept = static_cast<std::size_t>(
        cut_fraction * static_cast<double>(bytes->size() - 1)) + 1;
    bytes->resize(kept);
  }
  if (bitflip && !bytes->empty()) {
    const auto at = static_cast<std::size_t>(
        flip_position * static_cast<double>(bytes->size() - 1));
    const auto bit = static_cast<int>(
        util::mix64(stream ^ 0x9E3779B97F4A7C15ull) % 8);
    (*bytes)[at] ^= static_cast<std::byte>(1u << bit);
  }
  return bytes;
}

bool is_mbt_path(std::string_view path) noexcept {
  return path.ends_with(".mbt");
}

Expected<trace::Trace> parse_trace_bytes(
    const std::string& path, std::span<const std::byte> bytes,
    const util::Deadline& deadline,
    std::optional<std::uint64_t> mbt_body_hash) {
  if (is_mbt_path(path)) {
    return mbt_body_hash ? darshan::parse_mbt(bytes, *mbt_body_hash)
                         : darshan::parse_mbt(bytes);
  }
  return darshan::parse_text(
      std::string_view(reinterpret_cast<const char*>(bytes.data()),
                       bytes.size()),
      deadline);
}

}  // namespace mosaic::ingest
