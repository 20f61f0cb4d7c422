// Ablation E — the 100 MB insignificance threshold (paper §III-A).
//
// "We estimate that applications reading or writing less than 100MB ...
// fall into those categories. These thresholds have been determined
// experimentally for the dataset processed ... Future work will investigate
// advanced methods for determining them." This bench sweeps min_bytes and
// shows what the choice controls: how much of the machine is categorized at
// all, how stable the active-category marginals are, and where the
// library-loading false positives (the paper's own example of a case the
// threshold mishandles) start to appear.
#include <cstdio>

#include "core/pipeline.hpp"
#include "report/accuracy.hpp"
#include "report/aggregate.hpp"
#include "report/tables.hpp"
#include "sim/population.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace mosaic;
  util::CliParser cli("ablation_threshold",
                      "category coverage vs the insignificance threshold");
  cli.add_option("traces", "population size", "8000");
  cli.add_option("seed", "master seed", "20190410");
  if (const auto status = cli.parse(argc, argv); !status.ok()) {
    return status.error().code == util::ErrorCode::kNotFound ? 0 : 2;
  }

  sim::PopulationConfig config;
  config.target_traces =
      static_cast<std::size_t>(cli.get_int("traces").value_or(8000));
  config.seed =
      static_cast<std::uint64_t>(cli.get_int("seed").value_or(20190410));
  const sim::Population population = sim::generate_population(config);
  const auto truth = report::truth_index(population.traces);
  std::vector<trace::Trace> traces;
  traces.reserve(population.traces.size());
  for (const sim::LabeledTrace& labeled : population.traces) {
    traces.push_back(labeled.trace);
  }

  std::printf(
      "\n=== Ablation E — the insignificance threshold (paper §III-A) ===\n"
      "sweeping min_bytes; paper default 100 MB, set experimentally\n\n");

  report::TextTable table({"min_bytes", "read active", "write active",
                           "read accuracy", "overall accuracy"});
  for (const std::uint64_t min_bytes :
       {1ull << 20, 10ull << 20, 100ull * 1000 * 1000, 1ull << 30,
        10ull << 30}) {
    core::Thresholds thresholds;
    thresholds.min_bytes = min_bytes;
    const core::BatchResult batch =
        core::analyze_population(traces, thresholds);
    const report::CategoryDistribution distribution =
        report::aggregate_categories(batch);

    // Accuracy against the 100 MB ground truth: as the operating threshold
    // departs from the one the labels were defined with, "accuracy" decays —
    // which is the point: the threshold is part of the category definition.
    const report::AccuracyReport accuracy =
        report::score_accuracy(batch.results, truth);

    table.add_row(
        {util::format_bytes(static_cast<double>(min_bytes)),
         util::format_percent(1.0 - distribution.single_fraction(
                                        core::Category::kReadInsignificant)),
         util::format_percent(1.0 - distribution.single_fraction(
                                        core::Category::kWriteInsignificant)),
         util::format_percent(accuracy.read_temporality.ratio()),
         util::format_percent(accuracy.overall.ratio())});
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf(
      "\nreading: lowering the threshold categorizes more of the machine but\n"
      "drags incidental I/O (library loading, config files) into the active\n"
      "categories — at 1 MiB nearly every job is 'active' and the labels\n"
      "stop matching application intent. Raising it to GiB scale silences\n"
      "genuinely active applications. The 100 MB default sits where the\n"
      "coverage/intent trade-off balances for this population — and since\n"
      "the threshold participates in the category *definition*, any single\n"
      "fixed value will mislabel some workloads (the paper's library-loading\n"
      "example), motivating its future-work plan of adaptive thresholds.\n");
  return 0;
}
