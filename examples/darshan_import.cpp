// Darshan import: categorize real (or exported) traces from disk.
//
// Feeds darshan-parser text dumps or .mbt binary containers through the
// MOSAIC pipeline — the application-by-application mode the paper suggests
// for feeding a job scheduler. With --export-demo the example first writes a
// small demo corpus so it can be run without any external data:
//
//   darshan_import --export-demo /tmp/mosaic_demo
//   darshan_import /tmp/mosaic_demo
//   darshan_import my_trace.darshan.txt another.mbt
#include <cstdio>
#include <filesystem>

#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "darshan/binary_format.hpp"
#include "darshan/io.hpp"
#include "darshan/text_format.hpp"
#include "ingest/ingest.hpp"
#include "json/json.hpp"
#include "report/json_output.hpp"
#include "sim/population.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace {

using namespace mosaic;

/// Writes a small mixed-format demo corpus and returns 0 on success.
int export_demo(const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", directory.c_str(),
                 ec.message().c_str());
    return 1;
  }
  sim::PopulationConfig config;
  config.target_traces = 24;
  config.corruption_fraction = 0.15;
  config.seed = 1234;
  const sim::Population population = sim::generate_population(config);
  std::size_t text_count = 0;
  std::size_t binary_count = 0;
  for (std::size_t i = 0; i < population.traces.size(); ++i) {
    const trace::Trace& t = population.traces[i].trace;
    const std::string stem =
        directory + "/job_" + std::to_string(t.meta.job_id);
    const util::Status status =
        i % 2 == 0 ? darshan::write_text_file(t, stem + ".darshan.txt")
                   : darshan::write_mbt_file(t, stem + ".mbt");
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.error().to_string().c_str());
      return 1;
    }
    ++(i % 2 == 0 ? text_count : binary_count);
  }
  std::printf("wrote %zu text + %zu binary traces to %s\n", text_count,
              binary_count, directory.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("darshan_import",
                      "categorize darshan-parser text / .mbt traces");
  cli.add_option("export-demo", "write a demo corpus to this directory", "");
  cli.add_option("thresholds", "JSON thresholds config (see core/config.hpp)",
                 "");
  cli.add_flag("json", "print the full JSON per trace");
  if (const auto status = cli.parse(argc, argv); !status.ok()) {
    return status.error().code == util::ErrorCode::kNotFound ? 0 : 2;
  }

  if (const auto demo_dir = cli.get("export-demo"); !demo_dir.empty()) {
    return export_demo(std::string(demo_dir));
  }

  // Collect trace files from the positional arguments (files or
  // directories).
  std::vector<std::string> paths;
  for (const std::string& arg : cli.positional()) {
    std::error_code ec;
    if (std::filesystem::is_directory(arg, ec)) {
      const auto scanned = darshan::scan_trace_dir(arg);
      if (!scanned.has_value()) {
        std::fprintf(stderr, "%s\n", scanned.error().to_string().c_str());
        return 1;
      }
      paths.insert(paths.end(), scanned->begin(), scanned->end());
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "no input traces; pass files/directories or use "
                 "--export-demo <dir> first\n");
    return 2;
  }

  core::Thresholds thresholds;
  if (const auto config_path = cli.get("thresholds"); !config_path.empty()) {
    auto loaded_thresholds =
        core::read_thresholds_file(std::string(config_path));
    if (!loaded_thresholds.has_value()) {
      std::fprintf(stderr, "%s\n",
                   loaded_thresholds.error().to_string().c_str());
      return 2;
    }
    thresholds = *loaded_thresholds;
  }
  const core::Analyzer analyzer(thresholds);
  std::size_t loaded = 0;
  std::size_t evicted = 0;
  for (const std::string& path : paths) {
    auto parsed = ingest::load_trace(path);
    if (!parsed.has_value()) {
      std::printf("%-48s LOAD ERROR (%s)\n", path.c_str(),
                  parsed.error().to_string().c_str());
      ++evicted;
      continue;
    }
    const trace::ValidityReport validity = trace::validate(*parsed);
    if (!validity.valid()) {
      std::printf("%-48s EVICTED (%s: %s)\n", path.c_str(),
                  trace::corruption_kind_name(validity.kind),
                  validity.detail.c_str());
      ++evicted;
      continue;
    }
    ++loaded;
    const core::TraceResult result = analyzer.analyze(*parsed);
    if (cli.get_flag("json")) {
      std::printf("%s\n",
                  json::serialize(report::trace_result_to_json(result)).c_str());
    } else {
      std::printf("%-48s %s\n", path.c_str(),
                  util::join(result.categories.names(), ", ").c_str());
    }
  }
  std::printf("\n%zu categorized, %zu evicted (paper Fig. 3 reports 32%% "
              "eviction on Blue Waters 2019)\n",
              loaded, evicted);
  return 0;
}
