#include "core/preprocess.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
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

/// Un-counts a journal-replayed winner that could not be re-loaded: its run
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

void StreamingPreprocessor::add(FileOutcome outcome,
                                std::optional<trace::Trace> trace) {
  ++stats_.input_traces;
  if (!outcome.valid()) {
    count_eviction(stats_, outcome.error->code, outcome.corruption);
    return;
  }
  ++stats_.valid;
  count_valid_metric();
  ++runs_per_app_[outcome.app_key];
  const auto [slot, inserted] = heaviest_.try_emplace(outcome.app_key);
  Slot& incumbent = slot->second;
  if (inserted ||
      dedup_wins(outcome.dedup_key(), incumbent.outcome.dedup_key())) {
    incumbent.outcome = std::move(outcome);
    incumbent.trace = std::move(trace);
  }
}

PreprocessResult StreamingPreprocessor::finish(
    const std::function<util::Expected<trace::Trace>(const std::string&)>&
        reload) {
  PreprocessResult result;
  result.stats = std::move(stats_);
  result.runs_per_app = std::move(runs_per_app_);
  result.retained.reserve(heaviest_.size());

  // std::map iteration is already sorted by app key — the deterministic
  // output order regardless of how workers raced during folding.
  for (auto& [key, slot] : heaviest_) {
    if (!slot.trace.has_value()) {
      // Journal-replayed winner: the trace bytes were never loaded this run.
      if (!reload) {
        MOSAIC_LOG_WARN("preprocess: no reload hook for journaled winner %s; "
                        "dropping application %s",
                        slot.outcome.path.c_str(), key.c_str());
        demote_app(result, key);
        continue;
      }
      auto loaded = reload(slot.outcome.path);
      if (!loaded.has_value()) {
        MOSAIC_LOG_WARN("preprocess: journaled winner %s no longer loads "
                        "(%s); dropping application %s",
                        slot.outcome.path.c_str(),
                        loaded.error().to_string().c_str(), key.c_str());
        count_eviction(result.stats, loaded.error().code,
                       trace::CorruptionKind::kNone);
        demote_app(result, key);
        continue;
      }
      slot.trace = std::move(*loaded);
    }
    result.retained.push_back(std::move(*slot.trace));
    result.retained_paths.push_back(std::move(slot.outcome.path));
  }
  heaviest_.clear();

  result.stats.unique_applications = result.retained.size();
  result.stats.retained = result.retained.size();
  return result;
}

}  // namespace mosaic::core
