// Parallel file-system performance model.
//
// The trace generator needs realistic durations for I/O windows: a 2 TiB
// checkpoint does not land in a millisecond, and op duration drives the
// busy-time categories and the temporal footprint of every synthetic trace.
// The model is a Lustre-like abstraction calibrated on Blue Waters' scratch
// tier (360 OSSs / 1440 OSTs, ~1 TB/s aggregate): a transfer is striped over
// a bounded number of OSTs, each contributing fixed bandwidth, degraded by a
// concurrency factor as more ranks pile onto the same stripes, plus a
// per-request metadata latency floor.
#pragma once

#include <cstdint>

#include "util/error.hpp"

namespace mosaic::sim {

/// Static description of the storage tier.
struct PfsConfig {
  std::uint32_t ost_count = 1440;          ///< object storage targets
  double ost_bandwidth = 1.2e9;            ///< bytes/s per OST (spec ~1.7 TB/s
                                           ///< aggregate; sustained lower)
  std::uint32_t default_stripe_count = 4;  ///< Lustre default striping
  /// Efficiency lost when many client ranks share a stripe set; the
  /// effective bandwidth is multiplied by 1 / (1 + sharing_penalty *
  /// log2(ranks_per_stripe)) — a standard contention curve shape.
  double sharing_penalty = 0.15;
  /// Latency floor per operation (open + RPC round trips), seconds.
  double op_latency = 0.005;
  /// Metadata server service rate (requests/s); the Mistral-like saturation
  /// point the paper cites is ~3000 req/s.
  double mds_rate = 3000.0;
};

/// Deterministic performance model over a PfsConfig.
class PfsModel {
 public:
  explicit PfsModel(PfsConfig config = {}) : config_(config) {
    MOSAIC_ASSERT(config_.ost_count >= 1);
    MOSAIC_ASSERT(config_.ost_bandwidth > 0.0);
  }

  /// Wall-clock seconds for `bytes` moved by `ranks` cooperating processes
  /// over `stripe_count` OSTs (0 -> default stripe count).
  [[nodiscard]] double transfer_seconds(std::uint64_t bytes,
                                        std::uint32_t ranks,
                                        std::uint32_t stripe_count = 0) const;

  /// Aggregate bandwidth (bytes/s) seen by `ranks` over `stripe_count` OSTs.
  [[nodiscard]] double effective_bandwidth(std::uint32_t ranks,
                                           std::uint32_t stripe_count = 0) const;

  [[nodiscard]] const PfsConfig& config() const noexcept { return config_; }

 private:
  PfsConfig config_;
};

}  // namespace mosaic::sim
