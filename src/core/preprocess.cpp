#include "core/preprocess.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/log.hpp"

namespace mosaic::core {

namespace {

/// Key under which validity evictions appear in the ErrorCode-keyed
/// breakdown; semantic corruption is the same failure class as a bad
/// checksum, so both land on kCorruptTrace.
std::string corrupt_code_name() {
  return std::string(util::error_code_name(util::ErrorCode::kCorruptTrace));
}

// Funnel metrics mirror the PreprocessStats breakdown maps series-for-entry
// and are bumped at the exact same sites, so a --metrics dump always agrees
// with the run's printed funnel summary — including on --resume, where
// journal-replayed evictions land on the same labeled series as live ones.
void count_eviction_metric(std::string_view code_name) {
  obs::Registry::global()
      .counter(obs::labeled(obs::names::kFunnelEvictions, "code", code_name),
               "files evicted from the funnel, by error code")
      .add();
}

void count_corruption_metric(std::string_view kind) {
  obs::Registry::global()
      .counter(obs::labeled(obs::names::kFunnelCorruption, "kind", kind),
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
      ++result.stats.corrupted;
      ++result.stats.corruption_breakdown[trace::corruption_kind_name(
          report.kind)];
      ++result.stats.eviction_breakdown[corrupt_code_name()];
      count_corruption_metric(trace::corruption_kind_name(report.kind));
      count_eviction_metric(corrupt_code_name());
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

void StreamingPreprocessor::fold_valid(ValidDigest digest,
                                       std::optional<trace::Trace> trace) {
  ++stats_.valid;
  count_valid_metric();
  ++runs_per_app_[digest.app_key];
  const auto [slot, inserted] = heaviest_.try_emplace(digest.app_key);
  Slot& incumbent = slot->second;
  if (inserted ||
      dedup_wins({digest.total_bytes, digest.job_id, digest.path},
                 {incumbent.digest.total_bytes, incumbent.digest.job_id,
                  incumbent.digest.path})) {
    incumbent.digest = std::move(digest);
    incumbent.trace = std::move(trace);
  }
}

trace::ValidityReport StreamingPreprocessor::add_trace(
    trace::Trace trace, std::string source_path, ValidDigest* digest_out) {
  ++stats_.input_traces;
  const trace::ValidityReport report = validate(trace);
  if (!report.valid()) {
    ++stats_.corrupted;
    ++stats_.corruption_breakdown[trace::corruption_kind_name(report.kind)];
    ++stats_.eviction_breakdown[corrupt_code_name()];
    count_corruption_metric(trace::corruption_kind_name(report.kind));
    count_eviction_metric(corrupt_code_name());
    return report;
  }
  ValidDigest digest;
  digest.path = std::move(source_path);
  digest.app_key = trace.app_key();
  digest.total_bytes = trace.total_bytes();
  digest.job_id = trace.meta.job_id;
  if (digest_out != nullptr) *digest_out = digest;
  fold_valid(std::move(digest), std::move(trace));
  return report;
}

void StreamingPreprocessor::add_load_failure(util::ErrorCode code) {
  ++stats_.input_traces;
  ++stats_.load_failed;
  ++stats_.eviction_breakdown[std::string(util::error_code_name(code))];
  count_eviction_metric(util::error_code_name(code));
}

void StreamingPreprocessor::add_valid_digest(ValidDigest digest) {
  ++stats_.input_traces;
  fold_valid(std::move(digest), std::nullopt);
}

void StreamingPreprocessor::add_journaled_eviction(
    std::string_view code_name, std::string_view corruption_kind) {
  ++stats_.input_traces;
  ++stats_.eviction_breakdown[std::string(code_name)];
  count_eviction_metric(code_name);
  if (!corruption_kind.empty()) {
    ++stats_.corrupted;
    ++stats_.corruption_breakdown[std::string(corruption_kind)];
    count_corruption_metric(corruption_kind);
  } else {
    ++stats_.load_failed;
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
                        slot.digest.path.c_str(), key.c_str());
        demote_app(result, key);
        continue;
      }
      auto loaded = reload(slot.digest.path);
      if (!loaded.has_value()) {
        MOSAIC_LOG_WARN("preprocess: journaled winner %s no longer loads "
                        "(%s); dropping application %s",
                        slot.digest.path.c_str(),
                        loaded.error().to_string().c_str(), key.c_str());
        ++result.stats.load_failed;
        ++result.stats.eviction_breakdown[std::string(
            util::error_code_name(loaded.error().code))];
        count_eviction_metric(util::error_code_name(loaded.error().code));
        demote_app(result, key);
        continue;
      }
      slot.trace = std::move(*loaded);
    }
    result.retained.push_back(std::move(*slot.trace));
    result.retained_paths.push_back(std::move(slot.digest.path));
  }
  heaviest_.clear();

  result.stats.unique_applications = result.retained.size();
  result.stats.retained = result.retained.size();
  return result;
}

}  // namespace mosaic::core
