// Deterministic corpus sharding for multi-process batch runs.
//
// The paper processes a year of Blue Waters traces (462,502 files) in one
// pass, and reading and parsing them is almost all of it. Sharding splits
// the scanned file list into N disjoint subsets by a stable hash of each
// file's name, so
//   - every file belongs to exactly one shard,
//   - the assignment depends only on (file name, N) — not on scan order,
//     argument order, thread count, or the directory the corpus is mounted
//     under — and
//   - N independent `mosaic batch --shard K/N` processes (or one process
//     looping K in-process via --shards N) can each fold their subset and
//     write a mergeable partial artifact (see report/partial.hpp).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "util/error.hpp"

namespace mosaic::ingest {

/// Which slice of the corpus an ingest run owns. The default (0 of 1) is
/// the unsharded whole-corpus run.
struct ShardSpec {
  std::size_t index = 0;  ///< this run's shard, in [0, count)
  std::size_t count = 1;  ///< total shards

  /// True when the spec actually partitions (count > 1).
  [[nodiscard]] bool active() const noexcept { return count > 1; }

  friend bool operator==(const ShardSpec&, const ShardSpec&) = default;
};

/// Shard owning `path` under an N-way partition. Hashes only the final path
/// component so the partition is invariant under corpus relocation (the same
/// files shard identically whether scanned via /mnt/a/pop or ./pop).
[[nodiscard]] std::size_t shard_of(std::string_view path,
                                   std::size_t count) noexcept;

/// True when `spec` owns `path`.
[[nodiscard]] bool shard_owns(const ShardSpec& spec,
                              std::string_view path) noexcept;

/// Parses the CLI form "K/N" (e.g. "0/4"). Errors on malformed text,
/// N == 0, or K >= N.
[[nodiscard]] util::Expected<ShardSpec> parse_shard_spec(
    std::string_view text);

/// Derives a per-shard artifact path by inserting ".shard-K" before the
/// final extension: "metrics.json" -> "metrics.shard-2.json";
/// extensionless paths get the suffix appended. Keeps N concurrent shard
/// processes launched from one command line from clobbering each other's
/// metrics and trace-event files.
[[nodiscard]] std::string shard_suffix_path(const std::string& path,
                                            std::size_t index);

/// Canonical partial-artifact file name for shard `index`:
/// "results.shard-K.json".
[[nodiscard]] std::string partial_filename(std::size_t index);

}  // namespace mosaic::ingest
