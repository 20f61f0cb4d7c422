#include "core/preprocess.hpp"

#include <algorithm>
#include <optional>
#include <utility>

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
/// printed funnel summary — on --resume too, where count_funnel adds a kept
/// shard's evictions to the same labeled series.
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
  result.stats.unique_applications = apps.size();
  result.stats.retained = result.retained.size();
  return result;
}

void count_funnel(const PreprocessStats& stats) {
  auto& registry = obs::Registry::global();
  for (const auto& [code, count] : stats.eviction_breakdown) {
    registry
        .counter(obs::labeled(obs::names::kFunnelEvictions, "code", code),
                 "files evicted from the funnel, by error code")
        .add(count);
  }
  for (const auto& [kind, count] : stats.corruption_breakdown) {
    registry
        .counter(obs::labeled(obs::names::kFunnelCorruption, "kind", kind),
                 "validity evictions, by corruption kind")
        .add(count);
  }
  registry
      .counter(obs::names::kFunnelValid,
               "traces that passed the validity check")
      .add(stats.valid);
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
  PreprocessStats& stats = state_.stats;
  ++stats.input_traces;
  if (!outcome.valid()) {
    count_eviction(stats, outcome.error->code, outcome.corruption);
    return;
  }
  ++stats.valid;
  count_valid_metric();
  const DedupKey run = outcome.dedup_key();
  const auto [slot, inserted] =
      state_.apps.try_emplace(std::move(outcome.app_key));
  AppFold& app = slot->second;
  ++app.runs;
  if (inserted || dedup_wins(run, app.dedup_key())) {
    app.total_bytes = outcome.total_bytes;
    app.job_id = outcome.job_id;
    app.path = std::move(outcome.path);
  }
}

void StreamingPreprocessor::absorb(FoldState other) {
  PreprocessStats& stats = state_.stats;
  stats.input_traces += other.stats.input_traces;
  stats.load_failed += other.stats.load_failed;
  stats.corrupted += other.stats.corrupted;
  stats.valid += other.stats.valid;
  for (const auto& [kind, count] : other.stats.corruption_breakdown) {
    stats.corruption_breakdown[kind] += count;
  }
  for (const auto& [code, count] : other.stats.eviction_breakdown) {
    stats.eviction_breakdown[code] += count;
  }
  // Applications this fold has not seen move over whole; what is left in
  // `other` ran in both.
  state_.apps.merge(other.apps);
  for (auto& [key, theirs] : other.apps) {
    AppFold& mine = state_.apps.find(key)->second;
    const std::size_t runs = mine.runs + theirs.runs;
    if (dedup_wins(theirs.dedup_key(), mine.dedup_key())) {
      mine = std::move(theirs);
    }
    mine.runs = runs;
  }
}

PreprocessResult StreamingPreprocessor::finish(const Reload& reload,
                                               parallel::ThreadPool* pool) {
  PreprocessResult result;
  result.stats = std::move(state_.stats);

  // std::map iteration is already sorted by app key — the deterministic
  // output order regardless of how the re-reads race.
  std::vector<std::pair<const std::string, AppFold>*> winners;
  winners.reserve(state_.apps.size());
  for (auto& entry : state_.apps) winners.push_back(&entry);

  // Each winner's trace while its file still holds the run that was
  // folded; otherwise why it does not.
  struct Reread {
    std::optional<trace::Trace> trace;
    std::optional<util::Error> error;
    trace::CorruptionKind corruption = trace::CorruptionKind::kNone;
  };
  std::vector<Reread> rereads(winners.size());
  const auto reread = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto& [key, winner] = *winners[i];
      Reread& out = rereads[i];
      auto loaded = reload(winner.path);
      if (!loaded.has_value()) {
        out.error = std::move(loaded).error();
        continue;
      }
      FileOutcome now = assess(*loaded, winner.path);
      if (!now.valid()) {
        out.error = std::move(now.error);
        out.corruption = now.corruption;
      } else if (now.app_key != key || now.total_bytes != winner.total_bytes ||
                 now.job_id != winner.job_id) {
        // The folded run is no longer at this path: as if the file had
        // gone, whatever now stands in its place.
        out.error = util::Error{
            util::ErrorCode::kNotFound,
            winner.path + " no longer holds the run folded for " + key +
                " (now " + now.app_key + ", " +
                std::to_string(now.total_bytes) + " bytes, job " +
                std::to_string(now.job_id) + ")"};
      } else {
        out.trace = std::move(*loaded);
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
    auto& [key, winner] = *winners[i];
    Reread& out = rereads[i];
    if (out.trace.has_value()) {
      result.retained.push_back(std::move(*out.trace));
      continue;
    }
    MOSAIC_LOG_WARN("preprocess: dedup winner %s failed its re-read (%s); "
                    "dropping application %s",
                    winner.path.c_str(), out.error->to_string().c_str(),
                    key.c_str());
    count_eviction(result.stats, out.error->code, out.corruption);
    // The winner is no longer a valid run. The application's other runs
    // keep their counts; aggregation only consults runs_per_app for
    // retained applications, so a leftover weight is inert.
    if (result.stats.valid > 0) --result.stats.valid;
    --winner.runs;
  }

  while (!state_.apps.empty()) {
    auto node = state_.apps.extract(state_.apps.begin());
    if (node.mapped().runs == 0) continue;
    result.runs_per_app.emplace_hint(result.runs_per_app.end(),
                                     std::move(node.key()),
                                     node.mapped().runs);
  }

  result.stats.unique_applications = result.retained.size();
  result.stats.retained = result.retained.size();
  return result;
}

}  // namespace mosaic::core
