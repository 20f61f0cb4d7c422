// Daemon phase: a dist::Daemon listening on loopback receives the whole
// corpus through Daemon::submit_path during set-up, then one closed-loop
// client submits a seeded half/half interleaving of resubmitted corpus traces
// (cache hits) and never-seen held-back traces (misses) over MDP1 through
// dist::submit_trace_file, timing each call to its decoded reply.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct DaemonConfig {
  std::string corpus_dir;  ///< warm-up traces of one format
  std::string miss_dir;    ///< never-seen traces of the same format
  std::string work_dir;    ///< the daemon's spool directory goes here
  std::uint64_t seed = 0;  ///< drives the hit/miss interleaving
  double seconds = 10.0;   ///< measuring budget for this phase
  /// Floor on submissions, so p90 has at least ten samples beyond it.
  std::size_t min_submissions = 100;
  bool traced = false;
  Perturb perturb = Perturb::kNone;
};

/// Runs the phase, appending its metrics. Returns the median set-up time
/// (Daemon start() plus the warm-up submissions) in seconds, without the
/// host's steal (SpanClock).
double run_daemon_phase(const DaemonConfig& config, Ledger& ledger,
                        std::vector<Metric>& metrics);

}  // namespace perfbench
