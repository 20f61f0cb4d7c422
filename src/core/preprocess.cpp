#include "core/preprocess.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "parallel/thread_pool.hpp"
#include "util/log.hpp"

namespace mosaic::core {

namespace {

/// Counts one eviction by ErrorCode and, when the validity check evicted
/// the file, by corruption kind; any other eviction is a load failure. The
/// funnel metrics mirror the PreprocessStats breakdown maps series for entry
/// and are bumped only here, so a --metrics dump always agrees with the
/// printed funnel summary — on --resume too, where journal-replayed
/// evictions land on the same labeled series as live ones.
void count_eviction(PreprocessStats& stats, util::ErrorCode code,
                    trace::CorruptionKind kind) {
  auto& registry = obs::Registry::global();
  const std::string_view code_name = util::error_code_name(code);
  ++stats.eviction_breakdown[std::string(code_name)];
  registry
      .counter(obs::labeled(obs::names::kFunnelEvictions, "code", code_name),
               "files evicted from the funnel, by error code")
      .add();
  if (kind == trace::CorruptionKind::kNone) {
    ++stats.load_failed;
    return;
  }
  const std::string_view kind_name = trace::corruption_kind_name(kind);
  ++stats.corrupted;
  ++stats.corruption_breakdown[std::string(kind_name)];
  registry
      .counter(obs::labeled(obs::names::kFunnelCorruption, "kind", kind_name),
               "validity evictions, by corruption kind")
      .add();
}

void count_valid_metric() {
  static obs::Counter& counter = obs::Registry::global().counter(
      obs::names::kFunnelValid, "traces that passed the validity check");
  counter.add();
}

/// Un-counts a dedup winner that failed its re-read in finish(): its run
/// is no longer a valid execution. Other (non-winner) runs of the app keep
/// their counts; aggregation only consults runs_per_app for retained apps,
/// so a leftover key without a retained trace is inert.
void demote_app(PreprocessResult& result, const std::string& key) {
  if (result.stats.valid > 0) --result.stats.valid;
  const auto it = result.runs_per_app.find(key);
  if (it != result.runs_per_app.end() && --it->second == 0) {
    result.runs_per_app.erase(it);
  }
}

/// Per-application dedup state: run count plus the incumbent winner. A
/// single app-keyed map carries both, so each valid trace costs one tree
/// lookup and duplicates compare against the cached dedup key instead of
/// rescanning the incumbent's file list.
struct AppSlot {
  std::size_t runs = 0;
  std::size_t index = 0;       ///< index of the winning run in the input
  std::uint64_t bytes = 0;     ///< cached traces[index].total_bytes()
  std::uint64_t job_id = 0;    ///< cached traces[index].meta.job_id
};

}  // namespace

PreprocessResult preprocess(std::span<const trace::Trace> traces) {
  PreprocessResult result;
  result.stats.input_traces = traces.size();

  // Step 1: evict corrupted traces, keeping the index of each application's
  // dedup winner as we go.
  std::map<std::string, AppSlot, std::less<>> apps;
  std::string key;  // scratch app key, reused across iterations
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const trace::ValidityReport report = validate(traces[i]);
    if (!report.valid()) {
      count_eviction(result.stats, util::ErrorCode::kCorruptTrace,
                     report.kind);
      continue;
    }
    ++result.stats.valid;
    count_valid_metric();
    traces[i].app_key(key);
    auto slot = apps.lower_bound(key);
    const bool inserted = slot == apps.end() || slot->first != key;
    if (inserted) slot = apps.emplace_hint(slot, key, AppSlot{});
    AppSlot& app = slot->second;
    ++app.runs;
    const DedupKey run{traces[i].total_bytes(), traces[i].meta.job_id, {}};
    if (inserted || dedup_wins(run, {app.bytes, app.job_id, {}})) {
      app.index = i;
      app.bytes = run.total_bytes;
      app.job_id = run.job_id;
    }
  }

  // Step 2: copy the winners out in input order, so retained traces keep the
  // input's relative order regardless of app-key sort order.
  std::vector<bool> keep(traces.size(), false);
  for (const auto& [app_key, app] : apps) {
    keep[app.index] = true;
    result.runs_per_app.emplace_hint(result.runs_per_app.end(), app_key,
                                     app.runs);
  }
  result.retained.reserve(apps.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (keep[i]) result.retained.push_back(traces[i]);
  }
  result.retained_paths.assign(result.retained.size(), std::string());
  result.stats.unique_applications = apps.size();
  result.stats.retained = result.retained.size();
  return result;
}

bool dedup_wins(const DedupKey& challenger,
                const DedupKey& incumbent) noexcept {
  if (challenger.total_bytes != incumbent.total_bytes) {
    return challenger.total_bytes > incumbent.total_bytes;
  }
  if (challenger.job_id != incumbent.job_id) {
    return challenger.job_id < incumbent.job_id;
  }
  return challenger.path < incumbent.path;
}

FileOutcome assess(const trace::Trace& trace, std::string path) {
  FileOutcome outcome;
  outcome.path = std::move(path);
  trace::ValidityReport report = validate(trace);
  if (!report.valid()) {
    outcome.error =
        util::Error{util::ErrorCode::kCorruptTrace, std::move(report.detail)};
    outcome.corruption = report.kind;
    return outcome;
  }
  outcome.app_key = trace.app_key();
  outcome.total_bytes = trace.total_bytes();
  outcome.job_id = trace.meta.job_id;
  return outcome;
}

void StreamingPreprocessor::add(FileOutcome outcome) {
  ++stats_.input_traces;
  if (!outcome.valid()) {
    count_eviction(stats_, outcome.error->code, outcome.corruption);
    return;
  }
  ++stats_.valid;
  count_valid_metric();
  ++runs_per_app_[outcome.app_key];
  const auto [slot, inserted] = heaviest_.try_emplace(outcome.app_key);
  if (inserted || dedup_wins(outcome.dedup_key(), slot->second.dedup_key())) {
    slot->second = std::move(outcome);
  }
}

PreprocessResult StreamingPreprocessor::finish(const Reload& reload,
                                               parallel::ThreadPool* pool) {
  PreprocessResult result;
  result.stats = std::move(stats_);
  result.runs_per_app = std::move(runs_per_app_);

  // std::map iteration is already sorted by app key — the deterministic
  // output order regardless of how the re-reads race.
  std::vector<FileOutcome*> winners;
  winners.reserve(heaviest_.size());
  for (auto& [key, winner] : heaviest_) winners.push_back(&winner);

  // Each winner's trace while its file still holds the run that was
  // folded; otherwise the winner's outcome becomes why it does not.
  std::vector<std::optional<trace::Trace>> traces(winners.size());
  const auto reread = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      FileOutcome& winner = *winners[i];
      auto loaded = reload(winner.path);
      if (!loaded.has_value()) {
        winner.error = std::move(loaded).error();
        continue;
      }
      const FileOutcome now = assess(*loaded, winner.path);
      if (!now.valid()) {
        winner.error = now.error;
        winner.corruption = now.corruption;
      } else if (now.app_key != winner.app_key ||
                 now.total_bytes != winner.total_bytes ||
                 now.job_id != winner.job_id) {
        // The folded run is no longer at this path: as if the file had
        // gone, whatever now stands in its place.
        winner.error = util::Error{
            util::ErrorCode::kNotFound,
            winner.path + " no longer holds the run folded for " +
                winner.app_key + " (now " + now.app_key + ", " +
                std::to_string(now.total_bytes) + " bytes, job " +
                std::to_string(now.job_id) + ")"};
      } else {
        traces[i] = std::move(*loaded);
      }
    }
  };
  if (pool != nullptr) {
    parallel::parallel_for(*pool, winners.size(), reread);
  } else {
    reread(0, winners.size());
  }

  result.retained.reserve(winners.size());
  for (std::size_t i = 0; i < winners.size(); ++i) {
    FileOutcome& winner = *winners[i];
    if (!traces[i].has_value()) {
      MOSAIC_LOG_WARN("preprocess: dedup winner %s failed its re-read (%s); "
                      "dropping application %s",
                      winner.path.c_str(), winner.error->to_string().c_str(),
                      winner.app_key.c_str());
      count_eviction(result.stats, winner.error->code, winner.corruption);
      demote_app(result, winner.app_key);
      continue;
    }
    result.retained.push_back(std::move(*traces[i]));
    result.retained_paths.push_back(std::move(winner.path));
  }
  heaviest_.clear();

  result.stats.unique_applications = result.retained.size();
  result.stats.retained = result.retained.size();
  return result;
}

}  // namespace mosaic::core
