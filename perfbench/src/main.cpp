// perfbench: the end-to-end benchmark's measuring program (see ../README.md).
//
//   perfbench fixture --dir D --seed S [--files N] [--miss M]
//       write the seeded corpus (both formats) and its manifest into D
//   perfbench run --corpus D --work W --workload NAME --seed S
//                 --seconds X --trace 0|1 [--min-submits N] [--perturb MODE]
//       run one workload over corpus D; the last stdout line is the result
//
// The fixture is a separate invocation so the measuring process never holds
// the generated population: its peak RSS is the product's, not the
// generator's.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "batch_phase.hpp"
#include "common.hpp"
#include "daemon_phase.hpp"
#include "fixture.hpp"
#include "json/json.hpp"

namespace {

using namespace perfbench;

/// Every workload runs both entry points and differs in the corpus format,
/// which is also the format of the daemon's traffic (see ../README.md).
const std::map<std::string, std::string>& workload_formats() {
  static const std::map<std::string, std::string> all = {
      {"batch_mbt", "mbt"}, {"batch_text", "text"}};
  return all;
}

/// Share of --seconds the batch phase gets; the daemon phase has the rest.
/// Submit latencies are steady at 100 submissions, while batch throughput
/// needs the longer window.
constexpr double kBatchShare = 0.8;

std::optional<Perturb> parse_perturb(const std::string& text) {
  static const std::map<std::string, Perturb> modes = {
      {"none", Perturb::kNone},         {"summary", Perturb::kSummary},
      {"funnel", Perturb::kFunnel},     {"category", Perturb::kCategory},
      {"cached", Perturb::kCached}};
  const auto it = modes.find(text);
  if (it == modes.end()) return std::nullopt;
  return it->second;
}

/// --key value pairs after the subcommand; nullopt on a malformed list.
std::optional<std::map<std::string, std::string>> parse_flags(int argc,
                                                              char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return std::nullopt;
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::optional<double> number(const std::map<std::string, std::string>& flags,
                             const std::string& key, std::optional<double> fallback) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') return std::nullopt;
  return value;
}

int usage() {
  std::fputs(
      "usage: perfbench fixture --dir D --seed S [--files N] [--miss M]\n"
      "       perfbench run --corpus D --work W --workload NAME --seed S\n"
      "                     --seconds X --trace 0|1 [--min-submits N]\n"
      "                     [--perturb none|summary|funnel|category|cached]\n",
      stderr);
  return 2;
}

int cmd_fixture(const std::map<std::string, std::string>& flags) {
  const auto seed = number(flags, "seed", std::nullopt);
  const auto files = number(flags, "files", 10000);
  const auto miss = number(flags, "miss", 1000);
  if (!flags.count("dir") || !seed || !files || !miss || *files < 1 ||
      *miss < 1) {
    return usage();
  }
  FixtureOptions options;
  options.dir = flags.at("dir");
  options.seed = static_cast<std::uint64_t>(*seed);
  options.files = static_cast<std::size_t>(*files);
  options.miss_files = static_cast<std::size_t>(*miss);
  if (const auto status = write_fixture(options); !status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.error().to_string().c_str());
    return 1;
  }
  return 0;
}

int cmd_run(const std::map<std::string, std::string>& flags) {
  const auto seed = number(flags, "seed", std::nullopt);
  const auto seconds = number(flags, "seconds", std::nullopt);
  const auto trace = number(flags, "trace", 0);
  const auto min_submits = number(flags, "min-submits", 100);
  const auto perturb =
      parse_perturb(flags.count("perturb") ? flags.at("perturb") : "none");
  if (!flags.count("corpus") || !flags.count("work") ||
      !flags.count("workload") || !seed || !seconds || *seconds <= 0 ||
      !trace || (*trace != 0 && *trace != 1) || !min_submits ||
      *min_submits < 1 || !perturb) {
    return usage();
  }
  const auto workload = workload_formats().find(flags.at("workload"));
  if (workload == workload_formats().end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 flags.at("workload").c_str());
    return 2;
  }
  const std::string& format = workload->second;
  const std::string corpus = flags.at("corpus");
  const auto manifest = read_manifest(corpus);
  if (!manifest.has_value()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 manifest.error().to_string().c_str());
    return 1;
  }
  const std::string work = flags.at("work");
  std::error_code ec;
  std::filesystem::remove_all(work, ec);
  std::filesystem::create_directories(work, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", work.c_str());
    return 1;
  }
  const bool traced = *trace == 1;

  Ledger ledger;
  std::vector<Metric> metrics;
  BatchConfig batch;
  batch.input_dir = corpus_subdir(corpus, format);
  batch.work_dir = work;
  batch.format = format;
  batch.manifest = *manifest;
  batch.seconds = *seconds * kBatchShare;
  batch.traced = traced;
  batch.perturb = *perturb;
  const double batch_setup_s = run_batch_phase(batch, ledger, metrics);

  DaemonConfig daemon;
  daemon.corpus_dir = corpus_subdir(corpus, format);
  daemon.miss_dir = miss_subdir(corpus, format);
  daemon.work_dir = work;
  daemon.seed = static_cast<std::uint64_t>(*seed);
  daemon.seconds = *seconds * (1.0 - kBatchShare);
  daemon.min_submissions = static_cast<std::size_t>(*min_submits);
  daemon.traced = traced;
  daemon.perturb = *perturb;
  const double daemon_setup_s = run_daemon_phase(daemon, ledger, metrics);

  if (!traced) {
    metrics.push_back({"setup_s", batch_setup_s + daemon_setup_s, "s"});
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics.push_back(
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"});
  } else {
    const double attempted = static_cast<double>(ledger.attempted());
    metrics.push_back({"error_ratio",
                       static_cast<double>(ledger.failed()) /
                           std::max(1.0, attempted),
                       "ratio"});
    metrics.push_back(
        {"corpus.files", static_cast<double>(manifest->files), "count"});
    metrics.push_back(
        {"corpus.bytes",
         static_cast<double>(format == "mbt" ? manifest->bytes_mbt
                                             : manifest->bytes_text),
         "bytes"});
    metrics.push_back({"corpus.unique_apps",
                       static_cast<double>(manifest->unique_apps), "count"});
  }
  std::filesystem::remove_all(work + "/spool", ec);

  mosaic::json::Object out_metrics;
  for (const Metric& m : metrics) {
    mosaic::json::Object entry;
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    out_metrics.set(m.name, std::move(entry));
  }
  mosaic::json::Object result;
  result.set("correct", ledger.failed() == 0);
  result.set("attempted", ledger.attempted());
  result.set("failed", ledger.failed());
  result.set("metrics", std::move(out_metrics));
  std::fflush(stderr);
  std::printf("%s\n",
              mosaic::json::serialize(mosaic::json::Value(std::move(result)),
                                      false)
                  .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const auto flags = parse_flags(argc, argv);
  if (!flags) return usage();
  if (command == "fixture") return cmd_fixture(*flags);
  if (command == "run") return cmd_run(*flags);
  return usage();
}
