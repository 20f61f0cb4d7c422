#include "obs/health.hpp"

#include <cmath>
#include <cstdio>

#include "json/reader.hpp"
#include "obs/names.hpp"

namespace mosaic::obs {

using json::Array;
using json::Object;
using json::Value;
using util::Error;
using util::ErrorCode;
using util::Expected;

std::string_view health_level_name(HealthLevel level) noexcept {
  switch (level) {
    case HealthLevel::kOk: return "ok";
    case HealthLevel::kWarn: return "warn";
    case HealthLevel::kFail: return "fail";
  }
  return "ok";
}

Expected<HealthLevel> health_level_from_name(std::string_view name) {
  if (name == "ok") return HealthLevel::kOk;
  if (name == "warn") return HealthLevel::kWarn;
  if (name == "fail") return HealthLevel::kFail;
  return Error{ErrorCode::kParseError,
               "unknown health level '" + std::string(name) + "'"};
}

namespace {

/// True when `series` is `family{...}` — a labeled variant of `family`.
bool is_family_member(std::string_view series, std::string_view family) {
  return series.size() > family.size() + 1 &&
         series.compare(0, family.size(), family) == 0 &&
         series[family.size()] == '{';
}

/// True for fleet-merge-labeled series (`worker="..."` present): summing
/// those on top of the bare fleet total would double-count.
bool has_worker_label(std::string_view series) {
  return series.find("worker=\"") != std::string_view::npos;
}

/// Resolves a rule metric against a snapshot (semantics in health.hpp).
double resolve_metric(const Snapshot& snapshot, std::string_view name) {
  for (const CounterSample& sample : snapshot.counters) {
    if (sample.name == name) return static_cast<double>(sample.value);
  }
  for (const GaugeSample& sample : snapshot.gauges) {
    if (sample.name == name) return static_cast<double>(sample.value);
  }
  // Family fold over labeled variants.
  double counter_sum = 0.0;
  bool counter_found = false;
  for (const CounterSample& sample : snapshot.counters) {
    if (!is_family_member(sample.name, name)) continue;
    if (has_worker_label(sample.name)) continue;
    counter_sum += static_cast<double>(sample.value);
    counter_found = true;
  }
  if (counter_found) return counter_sum;
  double gauge_max = 0.0;
  bool gauge_found = false;
  for (const GaugeSample& sample : snapshot.gauges) {
    if (!is_family_member(sample.name, name)) continue;
    const auto value = static_cast<double>(sample.value);
    if (!gauge_found || value > gauge_max) gauge_max = value;
    gauge_found = true;
  }
  if (gauge_found) return gauge_max;
  return 0.0;
}

std::string format_threshold(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%g", value);
  return buffer;
}

}  // namespace

std::vector<HealthRule> default_health_rules() {
  return {
      // Evictions per processed file: a corpus where most files die in the
      // funnel is a data problem worth failing loudly on.
      {"eviction-ratio", std::string(names::kFunnelEvictions),
       std::string(names::kIngestProcessed), 0.1, 0.5},
      // Retries per processed file: sustained retry pressure means the
      // storage layer is struggling even if everything eventually loads.
      {"retry-ratio", std::string(names::kIngestRetryAttempts),
       std::string(names::kIngestProcessed), 0.2, 1.0},
      {"quarantine", std::string(names::kIngestQuarantined), "", 1.0, 10.0},
      // Queue depth per pool thread: backlog growth beyond a few tasks per
      // worker means producers outpace the pool.
      {"queue-saturation", std::string(names::kPoolQueueDepth),
       std::string(names::kPoolThreads), 4.0, 16.0},
      {"suppressed-errors", std::string(names::kPoolSuppressedErrors), "",
       1.0, -1.0},
  };
}

std::vector<HealthRule> default_fleet_health_rules() {
  return {
      {"dispatch-retry-ratio", std::string(names::kDispatchRetries),
       std::string(names::kDispatchTasksDone), 0.5, 2.0},
      // A quarantined shard refuses the merge — that is already a failed
      // run, so warn and fail coincide.
      {"quarantine", std::string(names::kDispatchQuarantined), "", 1.0, 1.0},
      {"workers-lost", std::string(names::kDispatchWorkersLost), "", 1.0,
       -1.0},
      // A stale worker (heartbeat grace expired / quarantined / lost) means
      // the fleet view is no longer live — fail until it recovers.
      {"worker-staleness", std::string(names::kFleetWorkersStale), "", 1.0,
       1.0},
      {"degraded-tasks", std::string(names::kDispatchDegradedTasks), "", 1.0,
       -1.0},
      {"telemetry-parse-errors",
       std::string(names::kFleetTelemetryParseErrors), "", 1.0, -1.0},
  };
}

HealthReport evaluate_health(const Snapshot& snapshot,
                             const std::vector<HealthRule>& rules) {
  HealthReport report;
  report.checks.reserve(rules.size());
  for (const HealthRule& rule : rules) {
    HealthCheck check;
    check.rule = rule.name;
    check.metric = rule.metric;
    check.warn = rule.warn;
    check.fail = rule.fail;
    double value = resolve_metric(snapshot, rule.metric);
    if (!rule.denominator.empty()) {
      const double denominator = resolve_metric(snapshot, rule.denominator);
      value = denominator > 0.0 ? value / denominator : 0.0;
    }
    check.value = value;
    if (rule.fail >= 0.0 && value >= rule.fail) {
      check.level = HealthLevel::kFail;
    } else if (rule.warn >= 0.0 && value >= rule.warn) {
      check.level = HealthLevel::kWarn;
    }
    report.level = worse(report.level, check.level);
    report.checks.push_back(std::move(check));
  }
  if (metrics_enabled()) {
    static Gauge& level_gauge = Registry::global().gauge(
        names::kHealthLevel, "Latest health verdict (0 ok, 1 warn, 2 fail)");
    static Counter& evaluations = Registry::global().counter(
        names::kHealthEvaluations, "Health rule-set evaluations");
    level_gauge.set(static_cast<std::int64_t>(report.level));
    evaluations.add(1);
  }
  return report;
}

json::Value health_to_json(const HealthReport& report) {
  Object out;
  out.set("status", std::string(health_level_name(report.level)));
  Array checks;
  checks.reserve(report.checks.size());
  for (const HealthCheck& check : report.checks) {
    Object c;
    c.set("rule", check.rule);
    c.set("metric", check.metric);
    c.set("value", check.value);
    if (check.warn >= 0.0) c.set("warn", check.warn);
    if (check.fail >= 0.0) c.set("fail", check.fail);
    c.set("status", std::string(health_level_name(check.level)));
    checks.push_back(std::move(c));
  }
  out.set("checks", std::move(checks));
  return Value(std::move(out));
}

std::string health_summary(const HealthReport& report) {
  if (report.level == HealthLevel::kOk) return "ok";
  std::string culprits;
  for (const HealthCheck& check : report.checks) {
    // Name only the rules at the rollup's severity: a warn rollup listing
    // its warns, a fail rollup listing its fails.
    if (check.level != report.level) continue;
    if (!culprits.empty()) culprits += ',';
    culprits += check.rule;
  }
  std::string out(health_level_name(report.level));
  // A rollup can outrank every check (e.g. folded from another report);
  // a bare level reads better than empty parens then.
  if (!culprits.empty()) out += '(' + culprits + ')';
  return out;
}

std::string health_text(const HealthReport& report) {
  std::string out = "health: ";
  out += health_level_name(report.level);
  out += '\n';
  for (const HealthCheck& check : report.checks) {
    char value[32];
    std::snprintf(value, sizeof value, "%.4g", check.value);
    out += "  ";
    out += health_level_name(check.level);
    out.append(6 - health_level_name(check.level).size(), ' ');
    out += check.rule;
    out += " = ";
    out += value;
    if (check.warn >= 0.0) {
      out += " (warn >= " + format_threshold(check.warn);
      if (check.fail >= 0.0) out += ", fail >= " + format_threshold(check.fail);
      out += ")";
    } else if (check.fail >= 0.0) {
      out += " (fail >= " + format_threshold(check.fail) + ")";
    }
    out += "  [";
    out += check.metric;
    out += "]\n";
  }
  return out;
}

Expected<std::vector<HealthRule>> health_rules_from_json(
    const json::Value& value) {
  const json::Reader r(value, "health rules");
  const json::Reader rules = r.array("rules");
  if (r.ok() && rules.size() == 0) r.fail("rules", "is empty");
  std::vector<HealthRule> out;
  out.reserve(rules.size());
  for (std::size_t i = 0; i < rules.size() && r.ok(); ++i) {
    const json::Reader rule = rules.object(i);
    if (!rule.has("warn") && !rule.has("fail")) {
      rules.fail(i, "needs at least one of 'warn'/'fail'");
    }
    out.push_back({std::string(rule.string("name")),
                   std::string(rule.string("metric")),
                   std::string(rule.string("denominator", "")),
                   rule.number("warn", -1.0), rule.number("fail", -1.0)});
  }
  return r.finish(std::move(out));
}

json::Value health_rules_to_json(const std::vector<HealthRule>& rules) {
  Array members;
  members.reserve(rules.size());
  for (const HealthRule& rule : rules) {
    Object member;
    member.set("name", rule.name);
    member.set("metric", rule.metric);
    if (!rule.denominator.empty()) {
      member.set("denominator", rule.denominator);
    }
    if (rule.warn >= 0.0) member.set("warn", rule.warn);
    if (rule.fail >= 0.0) member.set("fail", rule.fail);
    members.push_back(std::move(member));
  }
  Object out;
  out.set("rules", std::move(members));
  return Value(std::move(out));
}

Expected<std::vector<HealthRule>> load_health_rules(const std::string& path) {
  auto parsed = json::read_file(path);
  if (!parsed.has_value()) return std::move(parsed).error();
  return health_rules_from_json(*parsed);
}

}  // namespace mosaic::obs
