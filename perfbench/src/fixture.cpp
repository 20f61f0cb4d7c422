#include "fixture.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <vector>

#include "darshan/binary_format.hpp"
#include "darshan/text_format.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/corruption.hpp"
#include "sim/population.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using mosaic::util::Error;
using mosaic::util::ErrorCode;
using mosaic::util::Expected;
using mosaic::util::Status;

namespace {

constexpr char kManifestName[] = "manifest.txt";
/// `mosaic generate`'s default seed.
constexpr std::uint64_t kPopulationSeed = 20190410;
/// Paper Fig. 3: 32% of the Blue Waters 2019 traces are corrupted.
constexpr double kCorruptionFraction = 0.32;

/// Plain write: the fixture is regenerated when its manifest is missing, so
/// it needs none of the product's fsync + rename staging.
bool write_bytes(const std::string& path, const void* data, std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  return static_cast<bool>(out);
}

}  // namespace

std::string corpus_subdir(const std::string& dir, const std::string& format) {
  return dir + "/" + format;
}

std::string miss_subdir(const std::string& dir, const std::string& format) {
  return dir + "/miss_" + format;
}

Status write_fixture(const FixtureOptions& options) {
  if (options.files == 0 || options.miss_files == 0) {
    return Error{ErrorCode::kInvalidArgument, "fixture needs files and misses"};
  }
  std::error_code ec;
  fs::remove_all(options.dir, ec);
  for (const char* format : {"mbt", "text"}) {
    fs::create_directories(corpus_subdir(options.dir, format), ec);
    fs::create_directories(miss_subdir(options.dir, format), ec);
    if (ec) {
      return Error{ErrorCode::kIoError,
                   "cannot create " + options.dir + ": " + ec.message()};
    }
  }

  // The population draw is fixed; the seed draws which executions are
  // corrupted and which are held back. A fresh population per seed moves
  // the corpus size by up to a quarter between seeds (its few heavy-rerun
  // applications dominate the bytes), which would swamp run-to-run
  // comparisons of the same code.
  mosaic::parallel::ThreadPool pool(4);
  mosaic::sim::PopulationConfig config;
  config.target_traces = options.files + options.miss_files;
  config.seed = kPopulationSeed;
  config.corruption_fraction = 0.0;
  mosaic::sim::Population population =
      mosaic::sim::generate_population(config, &pool);

  // Hold back every stride-th execution from a seeded offset, so the
  // never-seen pool has the population's mix of archetypes and reruns.
  const std::size_t stride =
      std::max<std::size_t>(2, population.traces.size() / options.miss_files);
  const std::size_t offset = mosaic::util::mix64(options.seed) % stride;
  const std::uint64_t salt = mosaic::util::mix64(options.seed ^ 0xC0DEull);
  std::vector<bool> held_back(population.traces.size(), false);
  std::size_t misses = 0;
  for (std::size_t i = 0; i < population.traces.size(); ++i) {
    if (misses < options.miss_files && i % stride == offset) {
      held_back[i] = true;
      ++misses;
    }
    // Corrupted in place as the generator does, at the paper's 32%.
    auto& labeled = population.traces[i];
    mosaic::util::Rng rng(mosaic::util::mix64(labeled.trace.meta.job_id ^ salt));
    if (rng.chance(kCorruptionFraction)) {
      mosaic::sim::corrupt_trace(labeled.trace,
                                 mosaic::sim::random_corruption_style(rng), rng);
      labeled.corrupted = true;
    }
  }

  Manifest manifest;
  manifest.seed = options.seed;
  manifest.files = population.traces.size() - misses;
  manifest.miss_files = misses;
  std::set<std::string> apps;
  for (std::size_t i = 0; i < population.traces.size(); ++i) {
    if (held_back[i]) continue;
    const auto& labeled = population.traces[i];
    if (labeled.corrupted) {
      ++manifest.planted_corrupt;
    } else {
      apps.insert(labeled.trace.app_key());
    }
  }
  manifest.unique_apps = apps.size();

  std::atomic<std::uint64_t> bytes_mbt{0};
  std::atomic<std::uint64_t> bytes_text{0};
  std::atomic<bool> ok{true};
  mosaic::parallel::parallel_for(
      pool, population.traces.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const auto& trace = population.traces[i].trace;
          const std::string stem = "/job_" + std::to_string(trace.meta.job_id);
          const auto mbt = mosaic::darshan::to_mbt(trace);
          const std::string text = mosaic::darshan::to_text(trace);
          const auto dir = held_back[i] ? miss_subdir : corpus_subdir;
          if (!write_bytes(dir(options.dir, "mbt") + stem + ".mbt",
                           mbt.data(), mbt.size()) ||
              !write_bytes(dir(options.dir, "text") + stem + ".darshan.txt",
                           text.data(), text.size())) {
            ok = false;
          }
          if (!held_back[i]) {
            bytes_mbt += mbt.size();
            bytes_text += text.size();
          }
        }
      });
  if (!ok) {
    return Error{ErrorCode::kIoError, "cannot write corpus under " + options.dir};
  }
  manifest.bytes_mbt = bytes_mbt;
  manifest.bytes_text = bytes_text;

  std::ofstream out(options.dir + "/" + kManifestName, std::ios::trunc);
  out << "seed " << manifest.seed << "\n"
      << "files " << manifest.files << "\n"
      << "miss_files " << manifest.miss_files << "\n"
      << "planted_corrupt " << manifest.planted_corrupt << "\n"
      << "unique_apps " << manifest.unique_apps << "\n"
      << "bytes_mbt " << manifest.bytes_mbt << "\n"
      << "bytes_text " << manifest.bytes_text << "\n";
  if (!out) {
    return Error{ErrorCode::kIoError, "cannot write the corpus manifest"};
  }
  return Status::success();
}

Expected<Manifest> read_manifest(const std::string& dir) {
  std::ifstream in(dir + "/" + kManifestName);
  if (!in) {
    return Error{ErrorCode::kNotFound, "no corpus manifest in " + dir};
  }
  std::map<std::string, std::uint64_t> fields;
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) fields[key] = value;
  for (const char* required :
       {"seed", "files", "miss_files", "planted_corrupt", "unique_apps",
        "bytes_mbt", "bytes_text"}) {
    if (fields.count(required) == 0) {
      return Error{ErrorCode::kParseError,
                   std::string("corpus manifest lacks ") + required};
    }
  }
  Manifest manifest;
  manifest.seed = fields["seed"];
  manifest.files = fields["files"];
  manifest.miss_files = fields["miss_files"];
  manifest.planted_corrupt = fields["planted_corrupt"];
  manifest.unique_apps = fields["unique_apps"];
  manifest.bytes_mbt = fields["bytes_mbt"];
  manifest.bytes_text = fields["bytes_text"];
  return manifest;
}

}  // namespace perfbench
