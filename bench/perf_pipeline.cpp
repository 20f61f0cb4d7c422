// §IV-E performance: the paper processes 462,502 traces in 165 minutes on a
// 64-core EPYC (memory-bound, ~300 GB RSS). These google-benchmark
// microbenches time every pipeline stage and the rate over a population
// already in memory, so the throughput story (traces/second, stage costs,
// thread scaling) can be compared in shape. Reading and parsing files, which
// dominate a real batch, are measured end to end by perfbench/.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <span>
#include <vector>

#include "core/merge.hpp"
#include "core/pipeline.hpp"
#include "core/segmentation.hpp"
#include "darshan/binary_format.hpp"
#include "darshan/text_format.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"
#include "obs/span.hpp"
#include "sim/population.hpp"
#include "util/fs.hpp"
#include "util/stopwatch.hpp"

namespace {

/// Heap-allocation accounting. Toggled around the measured loop only, so the
/// count excludes fixture setup; relaxed atomics keep the disabled cost to
/// one load per allocation.
std::atomic<bool> g_count_allocations{false};
std::atomic<std::uint64_t> g_allocation_count{0};

inline void note_allocation() noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  // Feed the sampling profiler's allocation-site attribution too, so a
  // profiled bench run shows which stage frames allocate (DESIGN.md §16).
  mosaic::obs::profiler_note_allocation();
}

}  // namespace

#if defined(MOSAIC_BENCH_COUNT_ALLOCS)
// Bench-only global allocation hook (see bench/CMakeLists.txt): every form
// forwards to malloc/free so the replacement set stays consistent, and the
// throwing forms bump the counter when accounting is armed. This TU is only
// linked into the perf_pipeline binary — product code never sees the hook.
void* operator new(std::size_t size) {
  note_allocation();
  if (size == 0) size = 1;
  if (void* ptr = std::malloc(size)) return ptr;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  note_allocation();
  const auto alignment = static_cast<std::size_t>(align);
  if (size == 0) size = alignment;
  void* ptr = nullptr;
  if (posix_memalign(&ptr, alignment, size) != 0) throw std::bad_alloc();
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
#endif  // MOSAIC_BENCH_COUNT_ALLOCS

namespace {

using namespace mosaic;

/// Shared small population so fixture cost is paid once.
const sim::Population& population() {
  static const sim::Population value = [] {
    sim::PopulationConfig config;
    config.target_traces = 4000;
    config.seed = 7;
    return sim::generate_population(config);
  }();
  return value;
}

/// A representative heavyweight trace (checkpointing app).
const trace::Trace& checkpoint_trace() {
  static const trace::Trace value = [] {
    for (const sim::LabeledTrace& labeled : population().traces) {
      if (!labeled.corrupted && labeled.archetype == "ckpt_minute") {
        return labeled.trace;
      }
    }
    return population().traces.front().trace;
  }();
  return value;
}

void BM_Validate(benchmark::State& state) {
  const trace::Trace& t = checkpoint_trace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::validate(t));
  }
}
BENCHMARK(BM_Validate);

void BM_ExtractOps(benchmark::State& state) {
  const trace::Trace& t = checkpoint_trace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::extract_ops(t, trace::OpKind::kWrite));
  }
}
BENCHMARK(BM_ExtractOps);

void BM_MergeOps(benchmark::State& state) {
  const trace::Trace& t = checkpoint_trace();
  const auto ops = trace::extract_ops(t, trace::OpKind::kWrite);
  for (auto _ : state) {
    auto copy = ops;
    benchmark::DoNotOptimize(
        core::merge_ops(std::move(copy), t.meta.run_time));
  }
}
BENCHMARK(BM_MergeOps);

void BM_Segmentation(benchmark::State& state) {
  const trace::Trace& t = checkpoint_trace();
  const auto merged = core::merge_ops(
      trace::extract_ops(t, trace::OpKind::kWrite), t.meta.run_time);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::segment_ops(merged));
  }
}
BENCHMARK(BM_Segmentation);

void BM_PeriodicityDetection(benchmark::State& state) {
  const trace::Trace& t = checkpoint_trace();
  const auto segments = core::segment_ops(core::merge_ops(
      trace::extract_ops(t, trace::OpKind::kWrite), t.meta.run_time));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::detect_periodicity(segments));
  }
}
BENCHMARK(BM_PeriodicityDetection);

void BM_TemporalityClassification(benchmark::State& state) {
  const trace::Trace& t = checkpoint_trace();
  const auto merged = core::merge_ops(
      trace::extract_ops(t, trace::OpKind::kWrite), t.meta.run_time);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::classify_temporality(merged, t.meta.run_time));
  }
}
BENCHMARK(BM_TemporalityClassification);

void BM_MetadataClassification(benchmark::State& state) {
  const trace::Trace& t = checkpoint_trace();
  const auto timeline = trace::metadata_timeline(t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::classify_metadata(
        timeline, t.meta.run_time, t.meta.nprocs));
  }
}
BENCHMARK(BM_MetadataClassification);

void BM_AnalyzeSingleTrace(benchmark::State& state) {
  const core::Analyzer analyzer;
  const trace::Trace& t = checkpoint_trace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.analyze(t));
  }
}
BENCHMARK(BM_AnalyzeSingleTrace);

/// In-memory population throughput; counter reports traces/second, the
/// paper's headline unit (462k traces / 165 min ~ 47 traces/s/64 cores).
void BM_PopulationPipeline(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::vector<trace::Trace> traces;
  for (const sim::LabeledTrace& labeled : population().traces) {
    traces.push_back(labeled.trace);
  }
  parallel::ThreadPool pool(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::analyze_population(
        std::span<const trace::Trace>(traces), {}, &pool));
  }
  state.counters["traces/s"] = benchmark::Counter(
      static_cast<double>(traces.size()) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PopulationPipeline)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_MbtDecode(benchmark::State& state) {
  const auto bytes = darshan::to_mbt(checkpoint_trace());
  for (auto _ : state) {
    benchmark::DoNotOptimize(darshan::parse_mbt(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes.size()) *
                          state.iterations());
}
BENCHMARK(BM_MbtDecode);

void BM_DarshanTextParse(benchmark::State& state) {
  const std::string text = darshan::to_text(checkpoint_trace());
  for (auto _ : state) {
    benchmark::DoNotOptimize(darshan::parse_text(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(text.size()) *
                          state.iterations());
}
BENCHMARK(BM_DarshanTextParse);

void BM_TraceGeneration(benchmark::State& state) {
  const sim::TraceGenerator generator;
  sim::AppSpec spec;
  spec.name = "bench";
  spec.runtime_median = 3600.0;
  sim::PeriodicSpec periodic;
  periodic.period_seconds = 300.0;
  spec.periodic.push_back(periodic);
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        generator.generate(spec, {}, {.job_id = 1}, rng));
  }
}
BENCHMARK(BM_TraceGeneration);

/// Timing for one block of repeated full analyses of `traces`
/// (analyze_population reads the population by reference, so every pass
/// re-analyzes the same corpus without a per-pass deep copy).
struct BlockTiming {
  double total_seconds = 0.0;  ///< wall seconds for the whole block
  double best_pass_seconds = 0.0;  ///< fastest single pass in the block
};

/// Runs `passes` analyses, timing the block and each individual pass. The
/// block total feeds the drift-cancelling paired ratio; the per-pass
/// minimum is the noise-robust estimator — a pass takes well under a
/// millisecond, so across a few thousand passes some land inside clean
/// scheduling windows even when CPU steal arrives in multi-second bursts,
/// and the fastest pass in each mode converges on that mode's intrinsic
/// cost. Per-pass timing adds two clock reads (~50 ns) per ~1 ms pass.
BlockTiming time_population_analysis(const std::vector<trace::Trace>& traces,
                                     parallel::ThreadPool& pool,
                                     int passes = 1) {
  BlockTiming timing;
  timing.best_pass_seconds = std::numeric_limits<double>::infinity();
  const util::Stopwatch watch;
  for (int pass = 0; pass < passes; ++pass) {
    const util::Stopwatch pass_watch;
    benchmark::DoNotOptimize(core::analyze_population(
        std::span<const trace::Trace>(traces), {}, &pool));
    timing.best_pass_seconds =
        std::min(timing.best_pass_seconds, pass_watch.elapsed_seconds());
  }
  timing.total_seconds = watch.elapsed_seconds();
  return timing;
}

/// Measures the cost of the full instrumentation surface: the same
/// population analyzed with metrics + span tracing + sampled provenance
/// enabled versus everything disabled. The budget is <10% overhead
/// enabled-vs-disabled: the surface costs ~10 us per 1000-trace pass in
/// absolute terms, a fixed cost against a pass of well under a
/// millisecond.
struct OverheadResult {
  double enabled_seconds = 0.0;
  double disabled_seconds = 0.0;
  double overhead_pct = 0.0;         ///< min-enabled vs min-disabled ratio
  double paired_median_pct = 0.0;    ///< median of per-rep paired ratios
  std::size_t traces = 0;
  std::uint64_t provenance_sample = 0;  ///< 1-in-N rate used when enabled
};

OverheadResult measure_instrumentation_overhead() {
  OverheadResult result;
  std::vector<trace::Trace> traces;
  for (const sim::LabeledTrace& labeled : population().traces) {
    if (!labeled.corrupted) traces.push_back(labeled.trace);
    if (traces.size() >= 1000) break;
  }
  result.traces = traces.size();
  // One worker: the instrumentation cost is per-trace, so a single-threaded
  // run measures the same relative overhead without the scheduling jitter a
  // full-width pool picks up on shared CI machines.
  parallel::ThreadPool pool(1);

  // Provenance sampling rate matching a realistic batch-audit setting.
  constexpr std::uint64_t kProvenanceSample = 8;
  result.provenance_sample = kProvenanceSample;
  // 31 reps x 64 passes: after the zero-alloc/flat-grid/FFT-plan pass a
  // full population analysis runs in well under a millisecond, so each
  // paired measurement needs more passes for scheduler jitter to average
  // out — at 32 passes the paired ratio swung several points run-to-run.
  // The block minima (the gate number) only need one clean scheduling
  // window per mode across the whole run, so more reps buy robustness on
  // runners where CPU steal arrives in multi-second bursts.
  constexpr int kReps = 31;
  constexpr int kPasses = 64;
  double enabled = std::numeric_limits<double>::infinity();
  double disabled = std::numeric_limits<double>::infinity();
  std::vector<double> ratios;
  ratios.reserve(kReps);
  // Warm-up pass so neither mode pays first-touch costs.
  (void)time_population_analysis(traces, pool);
  auto& tracer = obs::SpanTracer::global();
  auto& journal = obs::ProvenanceJournal::global();
  const auto measure_enabled = [&] {
    obs::set_metrics_enabled(true);
    tracer.enable();
    journal.enable(kProvenanceSample);
    const BlockTiming timing = time_population_analysis(traces, pool, kPasses);
    tracer.disable();
    journal.disable();
    journal.reset();  // keep the buffered records bounded across reps
    enabled = std::min(enabled, timing.best_pass_seconds);
    return timing.total_seconds;
  };
  const auto measure_disabled = [&] {
    obs::set_metrics_enabled(false);
    const BlockTiming timing = time_population_analysis(traces, pool, kPasses);
    disabled = std::min(disabled, timing.best_pass_seconds);
    return timing.total_seconds;
  };
  for (int rep = 0; rep < kReps; ++rep) {
    // Each rep measures both modes back-to-back (alternating order) so they
    // share one noise regime; the paired ratio cancels sustained drift that
    // a global min-enabled / min-disabled comparison would not.
    double rep_enabled = 0.0;
    double rep_disabled = 0.0;
    if (rep % 2 == 0) {
      rep_enabled = measure_enabled();
      rep_disabled = measure_disabled();
    } else {
      rep_disabled = measure_disabled();
      rep_enabled = measure_enabled();
    }
    if (rep_disabled > 0.0) ratios.push_back(rep_enabled / rep_disabled);
  }
  obs::set_metrics_enabled(true);
  // Fastest observed single pass per mode; inmem_inputs_per_second stays
  // trace-count/seconds against this.
  result.enabled_seconds = enabled;
  result.disabled_seconds = disabled;
  std::sort(ratios.begin(), ratios.end());
  const double median_ratio =
      ratios.empty() ? 1.0 : ratios[ratios.size() / 2];
  result.paired_median_pct = 100.0 * (median_ratio - 1.0);
  // The gate number is the ratio of the fastest single enabled pass to the
  // fastest single disabled pass. Scheduler/steal noise on a shared runner
  // is strictly additive, so the per-pass minima converge on each mode's
  // intrinsic cost; block-granularity minima and the paired median (kept
  // above for drift diagnosis) both still swung several points run-to-run
  // because steal arrives in bursts longer than one measurement block.
  result.overhead_pct =
      disabled > 0.0 ? 100.0 * (enabled / disabled - 1.0) : 0.0;
  return result;
}

/// The sampling-profiler cost experiment (budget: disabled ~0%, enabled at
/// the default rate <= 5%).
struct ProfilerOverheadResult {
  double hz = 0.0;
  /// A/A null arm: two disabled blocks compared against each other. The
  /// disabled path is one relaxed atomic load per frame push, so this
  /// measures pure harness noise — the honest "indistinguishable from
  /// baseline" number.
  double off_overhead_pct = 0.0;
  double enabled_overhead_pct = 0.0;  ///< enabled vs best disabled minimum
  std::uint64_t samples = 0;          ///< samples taken while enabled
  std::uint64_t idle_samples = 0;
};

ProfilerOverheadResult measure_profiler_overhead() {
  ProfilerOverheadResult result;
  result.hz = obs::Profiler::kDefaultHz;
  std::vector<trace::Trace> traces;
  for (const sim::LabeledTrace& labeled : population().traces) {
    if (!labeled.corrupted) traces.push_back(labeled.trace);
    if (traces.size() >= 1000) break;
  }
  parallel::ThreadPool pool(1);

  // Same estimator as the instrumentation experiment: per-pass minima over
  // alternating blocks, noise strictly additive (rationale above). Fewer
  // reps than the instrumentation gate because this runs three arms.
  constexpr int kReps = 15;
  constexpr int kPasses = 64;
  double off_a = std::numeric_limits<double>::infinity();
  double off_b = std::numeric_limits<double>::infinity();
  double on = std::numeric_limits<double>::infinity();
  (void)time_population_analysis(traces, pool);  // warm-up
  auto& profiler = obs::Profiler::global();
  profiler.reset();
  const auto measure_arm = [&](bool enable, double& best) {
    if (enable) profiler.enable(result.hz);
    const BlockTiming timing =
        time_population_analysis(traces, pool, kPasses);
    if (enable) profiler.disable();
    best = std::min(best, timing.best_pass_seconds);
  };
  for (int rep = 0; rep < kReps; ++rep) {
    // Rotate arm order so no arm systematically lands in the same noise
    // regime (the CPU-steal bursts arrive in multi-block stretches).
    switch (rep % 3) {
      case 0:
        measure_arm(false, off_a);
        measure_arm(false, off_b);
        measure_arm(true, on);
        break;
      case 1:
        measure_arm(true, on);
        measure_arm(false, off_a);
        measure_arm(false, off_b);
        break;
      default:
        measure_arm(false, off_b);
        measure_arm(true, on);
        measure_arm(false, off_a);
        break;
    }
  }
  result.samples = profiler.sample_count();
  result.idle_samples = profiler.idle_samples();
  if (off_a > 0.0) {
    result.off_overhead_pct = 100.0 * (off_b / off_a - 1.0);
  }
  const double off_best = std::min(off_a, off_b);
  if (off_best > 0.0) {
    result.enabled_overhead_pct = 100.0 * (on / off_best - 1.0);
  }
  return result;
}

/// Steady-state heap allocations per analyzed trace.
struct AllocationResult {
  bool counted = false;       ///< false when the bench hook is compiled out
  std::uint64_t total = 0;    ///< allocations across the measured pass
  double per_trace = 0.0;
  std::size_t traces = 0;
};

/// Counts heap allocations across one steady-state pass: a single analyzer
/// workspace (as the batch path keeps per worker), warmed by a full prior
/// pass so every buffer is at its high-water capacity. What remains is the
/// TraceResult output itself plus any scratch the workspace model missed —
/// the number DESIGN.md §12 tracks.
AllocationResult measure_allocations_per_trace() {
  AllocationResult result;
#if defined(MOSAIC_BENCH_COUNT_ALLOCS)
  result.counted = true;
#endif
  std::vector<trace::Trace> traces;
  for (const sim::LabeledTrace& labeled : population().traces) {
    if (!labeled.corrupted) traces.push_back(labeled.trace);
    if (traces.size() >= 1000) break;
  }
  result.traces = traces.size();

  const core::Analyzer analyzer;
  core::AnalyzerWorkspace workspace;
  // Warm-up: grows the workspace buffers to steady state and resolves the
  // lazily-initialized metric handles.
  for (const trace::Trace& t : traces) {
    benchmark::DoNotOptimize(analyzer.analyze(t, workspace));
  }

  g_allocation_count.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  for (const trace::Trace& t : traces) {
    benchmark::DoNotOptimize(analyzer.analyze(t, workspace));
  }
  g_count_allocations.store(false, std::memory_order_relaxed);
  result.total = g_allocation_count.load(std::memory_order_relaxed);
  if (!traces.empty()) {
    result.per_trace = static_cast<double>(result.total) /
                       static_cast<double>(traces.size());
  }
  return result;
}

/// Mean latency of a stage histogram in the snapshot, or 0 if never hit.
double stage_mean_ms(const obs::Snapshot& snapshot, std::string_view name) {
  for (const obs::HistogramSample& sample : snapshot.histograms) {
    if (sample.name == name && sample.count > 0) {
      return sample.sum / static_cast<double>(sample.count);
    }
  }
  return 0.0;
}

std::uint64_t counter_value(const obs::Snapshot& snapshot,
                            std::string_view name) {
  for (const obs::CounterSample& sample : snapshot.counters) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

/// Machine-readable companion to the human benchmark table: throughput,
/// per-stage means scraped from the metrics registry, and the
/// instrumentation overhead experiment.
void write_bench_json(const OverheadResult& overhead,
                      const ProfilerOverheadResult& profiler,
                      const AllocationResult& allocations,
                      const std::string& path) {
  const obs::Snapshot snapshot = obs::Registry::global().snapshot();

  json::Object out;
  out.set("benchmark", "perf_pipeline");
  out.set("traces", overhead.traces);
  out.set("inmem_inputs_per_second",
          overhead.enabled_seconds > 0.0
              ? static_cast<double>(overhead.traces) / overhead.enabled_seconds
              : 0.0);
  out.set("traces_analyzed_total",
          counter_value(snapshot, obs::names::kTracesAnalyzed));

  json::Object stages;
  stages.set("merge", stage_mean_ms(snapshot, obs::names::kStageMergeMs));
  stages.set("segment", stage_mean_ms(snapshot, obs::names::kStageSegmentMs));
  stages.set("periodicity",
             stage_mean_ms(snapshot, obs::names::kStagePeriodicityMs));
  stages.set("temporality",
             stage_mean_ms(snapshot, obs::names::kStageTemporalityMs));
  stages.set("metadata", stage_mean_ms(snapshot, obs::names::kStageMetadataMs));
  stages.set("categorize",
             stage_mean_ms(snapshot, obs::names::kStageCategorizeMs));
  stages.set("analyze", stage_mean_ms(snapshot, obs::names::kStageAnalyzeMs));
  out.set("stage_mean_ms", std::move(stages));

  json::Object instr;
  instr.set("enabled_seconds", overhead.enabled_seconds);
  instr.set("disabled_seconds", overhead.disabled_seconds);
  instr.set("overhead_pct", overhead.overhead_pct);
  instr.set("paired_median_pct", overhead.paired_median_pct);
  instr.set("surface", "metrics+spans+provenance");
  instr.set("provenance_sample", overhead.provenance_sample);
  out.set("instrumentation", std::move(instr));

  json::Object prof;
  prof.set("hz", profiler.hz);
  prof.set("off_overhead_pct", profiler.off_overhead_pct);
  prof.set("enabled_overhead_pct", profiler.enabled_overhead_pct);
  prof.set("samples", profiler.samples);
  prof.set("idle_samples", profiler.idle_samples);
  out.set("profiler", std::move(prof));

  json::Object allocs;
  allocs.set("counted", allocations.counted);
  allocs.set("per_trace", allocations.per_trace);
  allocs.set("total", allocations.total);
  allocs.set("traces", allocations.traces);
  out.set("allocations", std::move(allocs));

  if (const auto status =
          util::write_file_atomic(path, json::serialize(out) + "\n");
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.error().to_string().c_str());
  } else {
    std::printf("bench results written to %s (instrumentation %.2f%%, "
                "profiler off %.2f%% / on %.2f%%)\n",
                path.c_str(), overhead.overhead_pct,
                profiler.off_overhead_pct, profiler.enabled_overhead_pct);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // --overhead-only skips the google-benchmark suite: CI uses it to check
  // the instrumentation budget without paying for the microbenches.
  bool overhead_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--overhead-only") == 0) {
      overhead_only = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!overhead_only) benchmark::RunSpecifiedBenchmarks();
  const OverheadResult overhead = measure_instrumentation_overhead();
  const ProfilerOverheadResult profiler = measure_profiler_overhead();
  const AllocationResult allocations = measure_allocations_per_trace();
  write_bench_json(overhead, profiler, allocations,
                   "BENCH_perf_pipeline.json");
  benchmark::Shutdown();
  return 0;
}
