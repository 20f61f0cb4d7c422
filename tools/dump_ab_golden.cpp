// Regenerates the A/B categorization goldens used by test_golden_ab.
//
// Reworking src/cluster/ or src/core/ must keep categorization
// byte-identical: the integration test re-serializes the populations these
// goldens were written from, per detector backend, and compares bytes. Run
// from anywhere:
//
//   ./build/tools/dump_ab_golden <output-dir>
//
// and commit the refreshed files only when an intentional behavior change
// (new threshold default, new category) is being made.
#include <cstdio>
#include <string>

#include "core/pipeline.hpp"
#include "json/json.hpp"
#include "report/json_output.hpp"
#include "sim/population.hpp"
#include "util/fs.hpp"

namespace {

using namespace mosaic;

std::string serialize_population(const core::Thresholds& thresholds) {
  sim::PopulationConfig config;
  // Large enough that the retained applications cover periodic archetypes
  // (checkpointing minute/hour cadences) on both detector backends.
  config.target_traces = 2000;
  config.seed = 20240711;
  sim::Population population = sim::generate_population(config);
  std::vector<trace::Trace> traces;
  traces.reserve(population.traces.size());
  for (sim::LabeledTrace& labeled : population.traces) {
    traces.push_back(std::move(labeled.trace));
  }
  parallel::ThreadPool pool(2);
  const core::BatchResult batch =
      core::analyze_population(traces, thresholds, &pool);
  return json::serialize(
             report::batch_to_json(batch, /*include_traces=*/true)) +
         "\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];

  core::Thresholds meanshift;  // defaults: the paper's Mean-Shift backend
  core::Thresholds frequency;
  frequency.periodicity_backend = core::PeriodicityBackend::kFrequency;

  const struct {
    const char* name;
    const core::Thresholds& thresholds;
  } goldens[] = {
      {"ab_categorization_meanshift.json", meanshift},
      {"ab_categorization_frequency.json", frequency},
  };
  for (const auto& golden : goldens) {
    const std::string path = dir + "/" + golden.name;
    if (const auto status = util::write_file_atomic(
            path, serialize_population(golden.thresholds));
        !status.ok()) {
      std::fprintf(stderr, "%s\n", status.error().to_string().c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
