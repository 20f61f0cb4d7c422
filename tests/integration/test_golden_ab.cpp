// Byte-identity guard for the analyzer (DESIGN.md §12).
//
// Any rework of the analysis stages — the per-worker workspaces, the
// Mean-Shift shift loop, the FFT — may change *where bytes live*, never
// *what the pipeline computes*. These tests re-run the exact populations
// behind the committed goldens in tests/golden/ (written by
// tools/dump_ab_golden) and compare the serialized batch output byte for
// byte — once per detector backend, and across worker counts, since each
// pool worker owns a separate workspace.
//
// If a test here fails after an *intentional* behavior change (new threshold
// default, new category), regenerate the goldens:
//
//   ./build/tools/dump_ab_golden tests/golden
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "json/json.hpp"
#include "parallel/thread_pool.hpp"
#include "report/json_output.hpp"
#include "sim/population.hpp"

using namespace mosaic;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Mirrors tools/dump_ab_golden.cpp exactly: same population, same seed,
/// same serialization. Any drift between the two invalidates the guard.
std::string serialize_population(const core::Thresholds& thresholds,
                                 std::size_t workers) {
  sim::PopulationConfig config;
  config.target_traces = 2000;
  config.seed = 20240711;
  sim::Population population = sim::generate_population(config);
  std::vector<trace::Trace> traces;
  traces.reserve(population.traces.size());
  for (sim::LabeledTrace& labeled : population.traces) {
    traces.push_back(std::move(labeled.trace));
  }
  parallel::ThreadPool pool(workers);
  const core::BatchResult batch =
      core::analyze_population(traces, thresholds, &pool);
  return json::serialize(
             report::batch_to_json(batch, /*include_traces=*/true)) +
         "\n";
}

TEST(GoldenAb, MeanShiftBackendMatchesCommittedGolden) {
  const std::string golden = read_file(
      std::string(MOSAIC_SOURCE_DIR) +
      "/tests/golden/ab_categorization_meanshift.json");
  ASSERT_FALSE(golden.empty());
  const core::Thresholds thresholds;  // defaults: Mean-Shift backend
  EXPECT_EQ(serialize_population(thresholds, 2), golden);
}

TEST(GoldenAb, FrequencyBackendMatchesCommittedGolden) {
  const std::string golden = read_file(
      std::string(MOSAIC_SOURCE_DIR) +
      "/tests/golden/ab_categorization_frequency.json");
  ASSERT_FALSE(golden.empty());
  core::Thresholds thresholds;
  thresholds.periodicity_backend = core::PeriodicityBackend::kFrequency;
  EXPECT_EQ(serialize_population(thresholds, 2), golden);
}

TEST(GoldenAb, OutputIdenticalAcrossWorkerCounts) {
  // One Mean-Shift workspace lives per pool worker; the partition of traces
  // across workers therefore changes which buffers each trace is analyzed
  // in, and must not change a single output byte.
  const core::Thresholds thresholds;
  const std::string one = serialize_population(thresholds, 1);
  const std::string two = serialize_population(thresholds, 2);
  const std::string eight = serialize_population(thresholds, 8);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

}  // namespace
