#include "sim/pfs.hpp"

#include <algorithm>
#include <cmath>

namespace mosaic::sim {

double PfsModel::effective_bandwidth(std::uint32_t ranks,
                                     std::uint32_t stripe_count) const {
  if (stripe_count == 0) stripe_count = config_.default_stripe_count;
  stripe_count = std::min(stripe_count, config_.ost_count);
  ranks = std::max<std::uint32_t>(ranks, 1);

  const double raw =
      static_cast<double>(stripe_count) * config_.ost_bandwidth;
  const double ranks_per_stripe = std::max(
      1.0, static_cast<double>(ranks) / static_cast<double>(stripe_count));
  const double contention =
      1.0 / (1.0 + config_.sharing_penalty * std::log2(ranks_per_stripe));
  return raw * contention;
}

double PfsModel::transfer_seconds(std::uint64_t bytes, std::uint32_t ranks,
                                  std::uint32_t stripe_count) const {
  const double bandwidth = effective_bandwidth(ranks, stripe_count);
  return config_.op_latency + static_cast<double>(bytes) / bandwidth;
}

}  // namespace mosaic::sim
