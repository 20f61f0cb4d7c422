// Seeded corpus fixture: one sim::generate_population draw at the paper's
// ratios (32% corrupted in place, Blue Waters rerun tail), written as both
// .mbt and darshan-text. Every stride-th execution is held back into a
// "miss" pool the daemon has never seen. The manifest is written last, so a
// directory with a manifest is a complete corpus and can be reused.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common.hpp"
#include "util/error.hpp"

namespace perfbench {

struct FixtureOptions {
  std::string dir;
  std::uint64_t seed = 0;
  std::size_t files = 10000;
  std::size_t miss_files = 1000;
};

/// Subdirectories of a corpus directory.
[[nodiscard]] std::string corpus_subdir(const std::string& dir,
                                        const std::string& format);
[[nodiscard]] std::string miss_subdir(const std::string& dir,
                                      const std::string& format);

[[nodiscard]] mosaic::util::Status write_fixture(const FixtureOptions& options);

[[nodiscard]] mosaic::util::Expected<Manifest> read_manifest(
    const std::string& dir);

}  // namespace perfbench
