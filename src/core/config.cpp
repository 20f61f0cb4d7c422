#include "core/config.hpp"

#include <fstream>

#include "json/reader.hpp"

namespace mosaic::core {

using json::Object;
using util::Error;
using util::ErrorCode;
using util::Expected;
using util::Status;

const char* periodicity_backend_name(PeriodicityBackend backend) noexcept {
  switch (backend) {
    case PeriodicityBackend::kMeanShift: return "mean_shift";
    case PeriodicityBackend::kFrequency: return "frequency";
    case PeriodicityBackend::kHybrid: return "hybrid";
  }
  return "unknown";
}

namespace {

/// One descriptor per threshold: JSON key plus accessors. Keeping the list
/// in one table means serializer, parser and the unknown-key check can never
/// drift apart.
struct Field {
  const char* key;
  double Thresholds::* double_member = nullptr;
  std::uint64_t Thresholds::* u64_member = nullptr;
  std::size_t Thresholds::* size_member = nullptr;
  bool require_positive = true;
};

constexpr Field kFields[] = {
    {"min_bytes", nullptr, &Thresholds::min_bytes, nullptr, false},
    {"neighbor_gap_runtime_fraction",
     &Thresholds::neighbor_gap_runtime_fraction, nullptr, nullptr, false},
    {"neighbor_gap_op_fraction", &Thresholds::neighbor_gap_op_fraction,
     nullptr, nullptr, false},
    {"temporality_chunks", nullptr, nullptr, &Thresholds::temporality_chunks},
    {"dominance_factor", &Thresholds::dominance_factor},
    {"steady_cv", &Thresholds::steady_cv},
    {"meanshift_bandwidth", &Thresholds::meanshift_bandwidth},
    {"min_group_size", nullptr, nullptr, &Thresholds::min_group_size},
    {"group_duration_cv", &Thresholds::group_duration_cv},
    {"group_volume_cv", &Thresholds::group_volume_cv},
    {"busy_ratio_split", &Thresholds::busy_ratio_split},
    {"period_second_max", &Thresholds::period_second_max},
    {"period_minute_max", &Thresholds::period_minute_max},
    {"period_hour_max", &Thresholds::period_hour_max},
    {"high_spike_requests", &Thresholds::high_spike_requests},
    {"spike_requests", &Thresholds::spike_requests},
    {"multiple_spike_count", nullptr, nullptr,
     &Thresholds::multiple_spike_count},
    {"high_density_mean_requests", &Thresholds::high_density_mean_requests},
    {"frequency_min_score", &Thresholds::frequency_min_score, nullptr, nullptr,
     false},
    {"frequency_max_bins", nullptr, nullptr, &Thresholds::frequency_max_bins},
    {"min_op_width", &Thresholds::min_op_width},
};

constexpr const char* kBackendKey = "periodicity_backend";

}  // namespace

json::Value thresholds_to_json(const Thresholds& thresholds) {
  Object out;
  for (const Field& field : kFields) {
    if (field.double_member != nullptr) {
      out.set(field.key, thresholds.*(field.double_member));
    } else if (field.u64_member != nullptr) {
      out.set(field.key, thresholds.*(field.u64_member));
    } else {
      out.set(field.key, thresholds.*(field.size_member));
    }
  }
  out.set(kBackendKey,
          periodicity_backend_name(thresholds.periodicity_backend));
  return out;
}

Expected<Thresholds> thresholds_from_json(const json::Value& value) {
  const json::Reader r(value, "thresholds");
  Thresholds thresholds;
  for (const auto& [key, member] : r.members()) {
    if (key == kBackendKey) {
      const std::string_view name = r.string(key);
      if (name == "mean_shift") {
        thresholds.periodicity_backend = PeriodicityBackend::kMeanShift;
      } else if (name == "frequency") {
        thresholds.periodicity_backend = PeriodicityBackend::kFrequency;
      } else if (name == "hybrid") {
        thresholds.periodicity_backend = PeriodicityBackend::kHybrid;
      } else {
        r.fail(key, "names an unknown backend '" + std::string(name) + "'");
      }
      continue;
    }

    const Field* field = nullptr;
    for (const Field& candidate : kFields) {
      if (key == candidate.key) {
        field = &candidate;
        break;
      }
    }
    // A typo must not silently fall back to a default.
    if (field == nullptr) r.fail(key, "is not a threshold");
    const double raw = r.number(key);
    if (!r.ok()) break;
    if (raw < 0.0 || (field->require_positive && raw <= 0.0)) {
      return Error{ErrorCode::kInvalidArgument,
                   "thresholds: '" + key + "' out of range"};
    }
    if (field->double_member != nullptr) {
      thresholds.*(field->double_member) = raw;
    } else if (field->u64_member != nullptr) {
      thresholds.*(field->u64_member) = r.integer<std::uint64_t>(key);
    } else {
      if (raw < 1.0) {
        return Error{ErrorCode::kInvalidArgument,
                     "thresholds: '" + key + "' must be >= 1"};
      }
      thresholds.*(field->size_member) = r.integer<std::size_t>(key);
    }
  }
  if (!r.ok()) return r.error();

  // Cross-field sanity: magnitude buckets must be ordered.
  if (!(thresholds.period_second_max < thresholds.period_minute_max &&
        thresholds.period_minute_max < thresholds.period_hour_max)) {
    return Error{ErrorCode::kInvalidArgument,
                 "thresholds: period magnitude bounds must be increasing"};
  }
  if (thresholds.temporality_chunks < 2) {
    return Error{ErrorCode::kInvalidArgument,
                 "thresholds: temporality_chunks must be >= 2"};
  }
  return thresholds;
}

Status write_thresholds_file(const Thresholds& thresholds,
                             const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Error{ErrorCode::kIoError, "cannot create " + path};
  const std::string text = json::serialize(thresholds_to_json(thresholds));
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) return Error{ErrorCode::kIoError, "write failure on " + path};
  return Status::success();
}

Expected<Thresholds> read_thresholds_file(const std::string& path) {
  auto parsed = json::read_file(path);
  if (!parsed.has_value()) return std::move(parsed).error();
  return thresholds_from_json(*parsed);
}

}  // namespace mosaic::core
