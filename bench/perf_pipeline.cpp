// §IV-E performance: the paper processes 462,502 traces in 165 minutes on a
// 64-core EPYC (memory-bound, ~300 GB RSS). These google-benchmark
// microbenches time every pipeline stage and the rate over a population
// already in memory, so the throughput story (traces/second, stage costs,
// thread scaling) can be compared in shape. Reading and parsing files, which
// dominate a real batch, are measured end to end by perfbench/.
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "core/merge.hpp"
#include "core/pipeline.hpp"
#include "core/segmentation.hpp"
#include "darshan/binary_format.hpp"
#include "darshan/text_format.hpp"
#include "sim/population.hpp"

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

}  // namespace

BENCHMARK_MAIN();
