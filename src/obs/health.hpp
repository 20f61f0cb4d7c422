// Declarative health/SLO evaluation over metric snapshots.
//
// A HealthRule names a metric (optionally divided by a second metric) and
// warn/fail thresholds; evaluate_health() resolves each rule against a
// Snapshot and folds the per-rule verdicts into one ok/warn/fail report.
// The same engine serves three consumers:
//   - live: the dispatch telemetry server's /healthz endpoint and the
//     --progress board evaluate fleet rules against the merged snapshot,
//   - piggybacked: workers evaluate their local rules each heartbeat and
//     ship the verdict, so the fleet rollup reflects worker-side trouble
//     (e.g. quarantine growth) before it shows up in manager counters,
//   - post-mortem: `mosaic health` re-evaluates rules against a saved
//     metrics JSON file.
//
// Defaults ship in code (default_health_rules / default_fleet_health_rules)
// and can be replaced wholesale by a small JSON rules file — rules are
// data, not code, so operators can tighten thresholds without rebuilding.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace mosaic::obs {

/// Verdict severity; numeric order is badness order (worst wins the fold)
/// and the value exported as the mosaic_health_level gauge.
enum class HealthLevel : std::uint8_t { kOk = 0, kWarn = 1, kFail = 2 };

[[nodiscard]] std::string_view health_level_name(HealthLevel level) noexcept;

/// Parses "ok"/"warn"/"fail"; anything else errors (kParseError).
[[nodiscard]] util::Expected<HealthLevel> health_level_from_name(
    std::string_view name);

[[nodiscard]] constexpr HealthLevel worse(HealthLevel a,
                                          HealthLevel b) noexcept {
  return a < b ? b : a;
}

/// One SLO rule. `metric` resolves against a snapshot as:
///   - the exact series name when present (fleet totals match here), else
///   - the family fold over labeled variants `metric{...}`: counters sum
///     (skipping `worker="..."`-labeled series, which would double-count a
///     fleet total), gauges take the max (worst worker wins).
/// With `denominator` set the value becomes metric/denominator (0 when the
/// denominator resolves to 0). Thresholds compare with >=; a negative
/// threshold disables that level.
struct HealthRule {
  std::string name;         ///< stable rule id, e.g. "worker-staleness"
  std::string metric;
  std::string denominator;  ///< empty = use the metric value directly
  double warn = -1.0;
  double fail = -1.0;
};

/// One evaluated rule.
struct HealthCheck {
  std::string rule;
  std::string metric;
  double value = 0.0;
  double warn = -1.0;
  double fail = -1.0;
  HealthLevel level = HealthLevel::kOk;
};

struct HealthReport {
  HealthLevel level = HealthLevel::kOk;
  std::vector<HealthCheck> checks;  ///< rule order preserved
};

/// Process-local defaults: ingest eviction/retry pressure, quarantine
/// growth, thread-pool queue saturation, suppressed task errors.
[[nodiscard]] std::vector<HealthRule> default_health_rules();

/// Fleet (dispatch manager) defaults: retry ratio, quarantine, lost and
/// stale workers, degraded tasks, telemetry parse errors.
[[nodiscard]] std::vector<HealthRule> default_fleet_health_rules();

/// Evaluates `rules` against `snapshot`. Also records the verdict into the
/// live registry (mosaic_health_level gauge, mosaic_health_evaluations_total)
/// when metrics are enabled.
[[nodiscard]] HealthReport evaluate_health(const Snapshot& snapshot,
                                           const std::vector<HealthRule>& rules);

/// {"status": "...", "checks": [{rule, metric, value, warn, fail, status}]}.
[[nodiscard]] json::Value health_to_json(const HealthReport& report);

/// One-line rollup for the progress board: "ok", or
/// "warn(queue-saturation)", or "fail(worker-staleness,quarantine)".
[[nodiscard]] std::string health_summary(const HealthReport& report);

/// Multi-line human rendering for the `mosaic health` CLI.
[[nodiscard]] std::string health_text(const HealthReport& report);

/// Rules file codec: {"rules": [{"name", "metric", "denominator"?,
/// "warn"?, "fail"?}]}. Errors (kParseError) on missing/mistyped fields.
[[nodiscard]] util::Expected<std::vector<HealthRule>> health_rules_from_json(
    const json::Value& value);

/// Inverse of health_rules_from_json — round-trips exactly, so
/// `mosaic health --print-rules` output is a valid rules file.
[[nodiscard]] json::Value health_rules_to_json(
    const std::vector<HealthRule>& rules);
[[nodiscard]] util::Expected<std::vector<HealthRule>> load_health_rules(
    const std::string& path);

}  // namespace mosaic::obs
