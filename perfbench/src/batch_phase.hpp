// Batch phase: the calls `mosaic batch <dir> --json <file>` makes, in its
// order and with its default IngestOptions — scan_trace_dir, ingest_paths,
// analyze_preprocessed, aggregate_categories, write_batch_json — timed from
// scan start to the summary on disk, alternating 1 and 4 pool threads.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct BatchConfig {
  std::string input_dir;  ///< corpus directory of one format
  std::string work_dir;   ///< JSON summaries land here
  std::string format;     ///< "mbt" or "text"
  Manifest manifest;
  double seconds = 10.0;  ///< measuring budget for this phase
  bool traced = false;    ///< per-layer spans instead of end-to-end figures
  Perturb perturb = Perturb::kNone;
};

/// Runs the phase, appending its metrics. Returns the median set-up time
/// (thread-pool construction) in seconds.
double run_batch_phase(const BatchConfig& config, Ledger& ledger,
                       std::vector<Metric>& metrics);

}  // namespace perfbench
