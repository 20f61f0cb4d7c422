// Tests for the declarative health engine: metric resolution (exact name,
// counter family sum skipping worker-labeled series, gauge family max),
// denominator ratios, threshold semantics, rollup folding, the summary and
// JSON renderings, the rules-file codec round-trip, and reading snapshots
// back from the saved metrics JSON artifact (cumulative-bucket decumulation
// plus malformed-input rejection).
#include "obs/health.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "obs/metrics.hpp"

namespace mosaic::obs {
namespace {

CounterSample counter(std::string name, std::uint64_t value) {
  return {std::move(name), "", value};
}

GaugeSample gauge(std::string name, std::int64_t value) {
  return {std::move(name), "", value};
}

HealthRule rule(std::string name, std::string metric, double warn,
                double fail, std::string denominator = "") {
  return {std::move(name), std::move(metric), std::move(denominator), warn,
          fail};
}

TEST(HealthLevelTest, NamesRoundTripAndUnknownErrors) {
  EXPECT_EQ(health_level_name(HealthLevel::kOk), "ok");
  EXPECT_EQ(health_level_name(HealthLevel::kWarn), "warn");
  EXPECT_EQ(health_level_name(HealthLevel::kFail), "fail");
  for (const HealthLevel level :
       {HealthLevel::kOk, HealthLevel::kWarn, HealthLevel::kFail}) {
    auto parsed = health_level_from_name(health_level_name(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(health_level_from_name("degraded").has_value());
}

TEST(HealthLevelTest, WorseTakesTheMaximum) {
  EXPECT_EQ(worse(HealthLevel::kOk, HealthLevel::kWarn), HealthLevel::kWarn);
  EXPECT_EQ(worse(HealthLevel::kFail, HealthLevel::kWarn), HealthLevel::kFail);
  EXPECT_EQ(worse(HealthLevel::kOk, HealthLevel::kOk), HealthLevel::kOk);
}

TEST(HealthEvaluate, ThresholdsCompareWithGreaterOrEqual) {
  Snapshot snapshot;
  snapshot.counters.push_back(counter("m_total", 5));
  const std::vector<HealthRule> rules = {rule("r", "m_total", 5.0, 10.0)};

  auto report = evaluate_health(snapshot, rules);
  EXPECT_EQ(report.level, HealthLevel::kWarn);  // 5 >= warn 5

  snapshot.counters[0].value = 4;
  EXPECT_EQ(evaluate_health(snapshot, rules).level, HealthLevel::kOk);

  snapshot.counters[0].value = 10;
  report = evaluate_health(snapshot, rules);
  EXPECT_EQ(report.level, HealthLevel::kFail);
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_EQ(report.checks[0].rule, "r");
  EXPECT_EQ(report.checks[0].metric, "m_total");
  EXPECT_DOUBLE_EQ(report.checks[0].value, 10.0);
  EXPECT_EQ(report.checks[0].level, HealthLevel::kFail);
}

TEST(HealthEvaluate, NegativeThresholdDisablesThatLevel) {
  Snapshot snapshot;
  snapshot.counters.push_back(counter("m_total", 100));
  EXPECT_EQ(evaluate_health(snapshot, {rule("r", "m_total", -1.0, -1.0)}).level,
            HealthLevel::kOk);
  EXPECT_EQ(evaluate_health(snapshot, {rule("r", "m_total", 1.0, -1.0)}).level,
            HealthLevel::kWarn);
}

TEST(HealthEvaluate, CounterFamilySumSkipsWorkerLabeledSeries) {
  Snapshot snapshot;
  snapshot.counters.push_back(counter("m_total{code=\"x\"}", 2));
  snapshot.counters.push_back(counter("m_total{code=\"y\"}", 3));
  // Fleet-merge-labeled copies would double-count the fleet total.
  snapshot.counters.push_back(counter("m_total{worker=\"h:1\"}", 100));

  const auto report =
      evaluate_health(snapshot, {rule("r", "m_total", 10.0, -1.0)});
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_DOUBLE_EQ(report.checks[0].value, 5.0);
  EXPECT_EQ(report.level, HealthLevel::kOk);
}

TEST(HealthEvaluate, ExactNameWinsOverFamilyFold) {
  Snapshot snapshot;
  snapshot.counters.push_back(counter("m_total", 1));
  snapshot.counters.push_back(counter("m_total{code=\"x\"}", 50));
  const auto report =
      evaluate_health(snapshot, {rule("r", "m_total", 10.0, -1.0)});
  EXPECT_DOUBLE_EQ(report.checks[0].value, 1.0);
}

TEST(HealthEvaluate, GaugeFamilyTakesTheMax) {
  Snapshot snapshot;
  snapshot.gauges.push_back(gauge("depth{worker=\"a\"}", 3));
  snapshot.gauges.push_back(gauge("depth{worker=\"b\"}", 7));
  const auto report =
      evaluate_health(snapshot, {rule("r", "depth", 5.0, -1.0)});
  EXPECT_DOUBLE_EQ(report.checks[0].value, 7.0);
  EXPECT_EQ(report.level, HealthLevel::kWarn);
}

TEST(HealthEvaluate, DenominatorMakesARatioAndZeroDenominatorIsZero) {
  Snapshot snapshot;
  snapshot.counters.push_back(counter("bad_total", 3));
  snapshot.counters.push_back(counter("all_total", 12));
  auto report = evaluate_health(
      snapshot, {rule("ratio", "bad_total", 0.2, 0.5, "all_total")});
  EXPECT_DOUBLE_EQ(report.checks[0].value, 0.25);
  EXPECT_EQ(report.level, HealthLevel::kWarn);

  snapshot.counters[1].value = 0;  // no denominator yet: ratio defined as 0
  report = evaluate_health(
      snapshot, {rule("ratio", "bad_total", 0.2, 0.5, "all_total")});
  EXPECT_DOUBLE_EQ(report.checks[0].value, 0.0);
  EXPECT_EQ(report.level, HealthLevel::kOk);
}

TEST(HealthEvaluate, MissingMetricResolvesToZero) {
  const auto report =
      evaluate_health(Snapshot{}, {rule("r", "does_not_exist", 1.0, -1.0)});
  EXPECT_DOUBLE_EQ(report.checks[0].value, 0.0);
  EXPECT_EQ(report.level, HealthLevel::kOk);
}

TEST(HealthEvaluate, RollupIsTheWorstCheck) {
  Snapshot snapshot;
  snapshot.counters.push_back(counter("a_total", 5));
  snapshot.counters.push_back(counter("b_total", 50));
  const auto report = evaluate_health(
      snapshot,
      {rule("a", "a_total", 1.0, 100.0), rule("b", "b_total", 1.0, 10.0)});
  EXPECT_EQ(report.level, HealthLevel::kFail);
  EXPECT_EQ(report.checks[0].level, HealthLevel::kWarn);
  EXPECT_EQ(report.checks[1].level, HealthLevel::kFail);
}

TEST(HealthSummary, NamesTheCulpritsAtTheRollupSeverity) {
  Snapshot snapshot;
  snapshot.counters.push_back(counter("a_total", 5));
  snapshot.counters.push_back(counter("b_total", 50));
  snapshot.counters.push_back(counter("c_total", 50));
  EXPECT_EQ(health_summary(evaluate_health(snapshot, {})), "ok");
  EXPECT_EQ(health_summary(evaluate_health(
                snapshot, {rule("a", "a_total", 1.0, -1.0)})),
            "warn(a)");
  // A warn-level check is not listed when the rollup is fail.
  EXPECT_EQ(health_summary(evaluate_health(
                snapshot, {rule("a", "a_total", 1.0, -1.0),
                           rule("b", "b_total", 1.0, 10.0),
                           rule("c", "c_total", 1.0, 10.0)})),
            "fail(b,c)");
}

TEST(HealthSummary, RollupAboveEveryCheckRendersBareLevel) {
  // A rollup folded from another report (e.g. a worker's piggybacked
  // verdict) can outrank every local check; "warn" beats "warn()".
  HealthReport report;
  report.level = HealthLevel::kWarn;
  report.checks.push_back({"local", "m_total", 0.0, 1.0, -1.0,
                           HealthLevel::kOk});
  EXPECT_EQ(health_summary(report), "warn");
}

TEST(HealthJson, ReportSerializesStatusAndChecks) {
  Snapshot snapshot;
  snapshot.counters.push_back(counter("m_total", 10));
  const auto report =
      evaluate_health(snapshot, {rule("r", "m_total", 5.0, 10.0)});
  const json::Value out = health_to_json(report);
  ASSERT_TRUE(out.is_object());
  EXPECT_EQ(out.as_object().find("status")->as_string(), "fail");
  const json::Value* checks = out.as_object().find("checks");
  ASSERT_NE(checks, nullptr);
  ASSERT_EQ(checks->as_array().size(), 1u);
  const json::Object& check = checks->as_array()[0].as_object();
  EXPECT_EQ(check.find("rule")->as_string(), "r");
  EXPECT_EQ(check.find("status")->as_string(), "fail");
  EXPECT_DOUBLE_EQ(check.find("warn")->as_number(), 5.0);
  EXPECT_DOUBLE_EQ(check.find("fail")->as_number(), 10.0);
}

TEST(HealthText, RendersOneLinePerCheckWithThresholds) {
  Snapshot snapshot;
  snapshot.counters.push_back(counter("m_total", 3));
  const auto report =
      evaluate_health(snapshot, {rule("r", "m_total", 5.0, 10.0)});
  const std::string text = health_text(report);
  EXPECT_NE(text.find("health: ok"), std::string::npos);
  EXPECT_NE(text.find("r = 3"), std::string::npos);
  EXPECT_NE(text.find("warn >= 5"), std::string::npos);
  EXPECT_NE(text.find("fail >= 10"), std::string::npos);
  EXPECT_NE(text.find("[m_total]"), std::string::npos);
}

TEST(HealthRulesCodec, RoundTripsThroughJson) {
  const std::vector<HealthRule> rules = {
      rule("ratio", "bad_total", 0.25, 0.75, "all_total"),
      rule("warn-only", "w_total", 3.0, -1.0),
      rule("fail-only", "f_total", -1.0, 9.0),
  };
  auto decoded = health_rules_from_json(health_rules_to_json(rules));
  ASSERT_TRUE(decoded.has_value()) << decoded.error().to_string();
  ASSERT_EQ(decoded->size(), rules.size());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ((*decoded)[i].name, rules[i].name);
    EXPECT_EQ((*decoded)[i].metric, rules[i].metric);
    EXPECT_EQ((*decoded)[i].denominator, rules[i].denominator);
    EXPECT_DOUBLE_EQ((*decoded)[i].warn, rules[i].warn);
    EXPECT_DOUBLE_EQ((*decoded)[i].fail, rules[i].fail);
  }
}

TEST(HealthRulesCodec, DefaultsRoundTripToo) {
  for (const auto& rules :
       {default_health_rules(), default_fleet_health_rules()}) {
    auto decoded = health_rules_from_json(health_rules_to_json(rules));
    ASSERT_TRUE(decoded.has_value()) << decoded.error().to_string();
    EXPECT_EQ(decoded->size(), rules.size());
  }
}

TEST(HealthRulesCodec, RejectsMalformedDocuments) {
  const char* bad[] = {
      "[]",                                        // not an object
      "{}",                                        // no rules array
      "{\"rules\": []}",                           // empty rules
      "{\"rules\": [{\"metric\": \"m\", \"warn\": 1}]}",  // missing name
      "{\"rules\": [{\"name\": \"r\", \"warn\": 1}]}",    // missing metric
      "{\"rules\": [{\"name\": \"r\", \"metric\": \"m\"}]}",  // no thresholds
      "{\"rules\": [{\"name\": \"r\", \"metric\": \"m\","
      " \"warn\": \"high\"}]}",                    // mistyped threshold
  };
  for (const char* doc : bad) {
    auto parsed = json::parse(doc);
    ASSERT_TRUE(parsed.has_value()) << doc;
    EXPECT_FALSE(health_rules_from_json(*parsed).has_value()) << doc;
  }
}

TEST(HealthRulesCodec, LoadsFromFileAndErrorsOnMissingPath) {
  const std::string path = ::testing::TempDir() + "mosaic_health_rules.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << json::serialize(
        health_rules_to_json({rule("r", "m_total", 1.0, 2.0)}));
  }
  auto loaded = load_health_rules(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().to_string();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].name, "r");
  std::remove(path.c_str());

  EXPECT_FALSE(load_health_rules(path + ".does-not-exist").has_value());
}

/// Decodes a --metrics document the way `mosaic health` does.
util::Expected<Snapshot> decode_metrics(const json::Value& value) {
  const json::Reader reader(value, "metrics json");
  return reader.finish(snapshot_from_metrics_json(reader));
}

TEST(HealthMetricsJson, SnapshotRoundTripsThroughMetricsJson) {
  Snapshot snapshot;
  snapshot.counters.push_back(counter("c_total", 42));
  snapshot.gauges.push_back(gauge("depth", -3));
  HistogramSample histogram;
  histogram.name = "lat_ms";
  histogram.bounds = {1.0, 10.0};
  histogram.buckets = {2, 3, 1};  // non-cumulative in the Snapshot form
  histogram.count = 6;
  histogram.sum = 44.5;
  snapshot.histograms.push_back(histogram);

  auto decoded = decode_metrics(metrics_to_json(snapshot));
  ASSERT_TRUE(decoded.has_value()) << decoded.error().to_string();
  ASSERT_EQ(decoded->counters.size(), 1u);
  EXPECT_EQ(decoded->counters[0].name, "c_total");
  EXPECT_EQ(decoded->counters[0].value, 42u);
  ASSERT_EQ(decoded->gauges.size(), 1u);
  EXPECT_EQ(decoded->gauges[0].value, -3);
  ASSERT_EQ(decoded->histograms.size(), 1u);
  // metrics_to_json writes Prometheus-style cumulative buckets; the reader
  // de-cumulates back to the Snapshot form.
  EXPECT_EQ(decoded->histograms[0].bounds, histogram.bounds);
  EXPECT_EQ(decoded->histograms[0].buckets, histogram.buckets);
  EXPECT_EQ(decoded->histograms[0].count, 6u);
  EXPECT_DOUBLE_EQ(decoded->histograms[0].sum, 44.5);
}

TEST(HealthMetricsJson, RejectsMalformedMetricsDocuments) {
  const char* bad[] = {
      "[]",                                   // not an object
      "{\"counters\": []}",                   // counters not an object
      "{\"counters\": {\"c\": \"many\"}}",    // counter not a number
      "{\"histograms\": {\"h\": {}}}",        // histogram missing buckets
      // Decreasing cumulative counts are corrupt data, not a histogram.
      "{\"histograms\": {\"h\": {\"buckets\":"
      " [{\"le\": 1, \"count\": 5}, {\"le\": \"+Inf\", \"count\": 2}]}}}",
      // A finite last edge means the +Inf bucket is missing.
      "{\"histograms\": {\"h\": {\"buckets\":"
      " [{\"le\": 1, \"count\": 5}]}}}",
  };
  for (const char* doc : bad) {
    auto parsed = json::parse(doc);
    ASSERT_TRUE(parsed.has_value()) << doc;
    EXPECT_FALSE(decode_metrics(*parsed).has_value()) << doc;
  }
}

TEST(HealthMetricsJson, EvaluatesRulesAgainstADecodedArtifact) {
  // End-to-end shape of `mosaic health`: serialize a snapshot the way
  // --metrics does, read it back, evaluate a rules file against it.
  Snapshot snapshot;
  snapshot.counters.push_back(counter("bad_total", 8));
  snapshot.counters.push_back(counter("all_total", 10));
  auto decoded = decode_metrics(metrics_to_json(snapshot));
  ASSERT_TRUE(decoded.has_value());
  const auto report = evaluate_health(
      *decoded, {rule("ratio", "bad_total", 0.2, 0.5, "all_total")});
  EXPECT_EQ(report.level, HealthLevel::kFail);
  EXPECT_EQ(health_summary(report), "fail(ratio)");
}

}  // namespace
}  // namespace mosaic::obs
