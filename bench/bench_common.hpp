// Shared scaffolding for the table/figure reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper from a
// synthetic Blue Waters-like population, prints the measured numbers next to
// the paper's published ones, and exits 0. All benches accept:
//   --traces N   population size (default 20,000 ≈ 1/23 of Blue Waters 2019)
//   --seed S     master seed
//   --threads T  analysis threads (0 = hardware)
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "core/pipeline.hpp"
#include "parallel/thread_pool.hpp"
#include "report/aggregate.hpp"
#include "sim/population.hpp"
#include "util/cli.hpp"
#include "util/memory.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace mosaic::bench {

struct BenchSetup {
  sim::PopulationConfig population_config;
  std::size_t threads = 0;
  std::string csv_path;  ///< when non-empty, benches export their data as CSV
};

/// Parses the common flags; exits the process on --help or bad input.
inline BenchSetup parse_common_flags(const char* name, const char* summary,
                                     int argc, char** argv) {
  util::CliParser cli(name, summary);
  cli.add_option("traces", "number of executions to synthesize", "20000");
  cli.add_option("seed", "master RNG seed", "20190410");
  cli.add_option("threads", "analysis threads (0 = hardware)", "0");
  cli.add_option("csv", "also export the data as CSV to this path", "");
  if (const auto status = cli.parse(argc, argv); !status.ok()) {
    std::exit(status.error().code == util::ErrorCode::kNotFound ? 0 : 2);
  }
  BenchSetup setup;
  setup.csv_path = std::string(cli.get("csv"));
  setup.population_config.target_traces =
      static_cast<std::size_t>(cli.get_int("traces").value_or(20000));
  setup.population_config.seed =
      static_cast<std::uint64_t>(cli.get_int("seed").value_or(20190410));
  setup.threads = static_cast<std::size_t>(cli.get_int("threads").value_or(0));
  return setup;
}

struct BenchData {
  sim::Population population;
  core::BatchResult batch;
  double generate_seconds = 0.0;
  double analyze_seconds = 0.0;
};

/// Generates the population and runs the full pipeline on it.
inline BenchData run_pipeline(const BenchSetup& setup) {
  BenchData data;
  parallel::ThreadPool pool(setup.threads);

  util::Stopwatch watch;
  data.population = sim::generate_population(setup.population_config, &pool);
  data.generate_seconds = watch.elapsed_seconds();

  std::vector<trace::Trace> traces;
  traces.reserve(data.population.traces.size());
  for (const sim::LabeledTrace& labeled : data.population.traces) {
    traces.push_back(labeled.trace);  // keep labels for accuracy benches
  }

  watch.reset();
  data.batch = core::analyze_population(traces, {}, &pool);
  data.analyze_seconds = watch.elapsed_seconds();
  return data;
}

/// One "paper vs measured" row.
inline void print_row(const char* label, double paper, double measured) {
  std::printf("  %-38s paper: %6.1f%%   measured: %6.1f%%\n", label,
              paper * 100.0, measured * 100.0);
}

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

inline void print_footer(const BenchData& data) {
  std::printf(
      "\n[population: %zu traces, %zu apps | generate %.2fs, analyze %.2fs | "
      "peak RSS %s]\n",
      data.population.traces.size(), data.population.app_count,
      data.generate_seconds, data.analyze_seconds,
      util::format_bytes(static_cast<double>(util::peak_rss_bytes())).c_str());
}

}  // namespace mosaic::bench
