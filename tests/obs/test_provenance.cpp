// Decision-provenance journal: sampling gate, JSONL round-trip, explain
// rendering, and the pipeline integration that makes `mosaic explain`
// reproduce the exact decision path.
#include "obs/provenance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "sim/population.hpp"
#include "util/log.hpp"

namespace fs = std::filesystem;
using namespace mosaic;

namespace {

/// A fully populated record so round-trips cover every field.
obs::TraceProvenance sample_record() {
  obs::TraceProvenance record;
  record.app_key = "u1/app_v1";
  record.job_id = 42;
  record.runtime = 3600.0;
  record.nprocs = 128;

  record.read.merge = {100, 60, 40, 12.5, 11.0};
  record.read.segments = 39;
  record.read.periodicity.backend = "mean-shift";
  record.read.periodicity.periodic = true;
  record.read.periodicity.confidence = 0.42;
  record.read.periodicity.mean_shift.ran = true;
  record.read.periodicity.mean_shift.bandwidth = 0.12;
  record.read.periodicity.mean_shift.duration_cv_limit = 0.35;
  record.read.periodicity.mean_shift.volume_cv_limit = 0.5;
  record.read.periodicity.mean_shift.points = 39;
  record.read.periodicity.mean_shift.iterations = 87;
  record.read.periodicity.mean_shift.candidates.push_back(
      {20, 300.0, 0.1, 0.2, 0.4, 0.6, true, ""});
  record.read.periodicity.mean_shift.candidates.push_back(
      {5, 10.0, 0.9, 0.2, 0.1, 0.2, false, "duration-cv"});
  record.read.periodicity.groups.push_back({300.0, 1.5e9, 0.25, 20, "minute"});
  record.read.temporality.chunk_bytes = {1e9, 0.0, 0.0, 1e8};
  record.read.temporality.total_bytes = 1.1e9;
  record.read.temporality.min_bytes_threshold = 1e8;
  record.read.temporality.chunk_cv = 1.2;
  record.read.temporality.steady_cv_threshold = 0.25;
  record.read.temporality.dominance_factor = 2.0;
  record.read.temporality.dominant_chunk = 0;
  record.read.temporality.rule = "chunk-dominance";
  record.read.temporality.label = "on_start";
  record.read.temporality.confidence = 0.8;

  record.write.periodicity.backend = "frequency";
  record.write.periodicity.frequency.ran = true;
  record.write.periodicity.frequency.bin_seconds = 2.0;
  record.write.periodicity.frequency.min_score = 0.4;
  record.write.periodicity.frequency.peaks.push_back({60.0, 0.7, 12, true});
  record.write.temporality.rule = "insignificant";
  record.write.temporality.label = "insignificant";
  record.write.temporality.confidence = 1.0;

  record.metadata = {5000, 128,  80.0, 3.5, 7,    250.0, 50.0,
                     5,    50.0, false, true, true, false, 0.3};
  record.rules = {"[read] temporality on_start -> read_on_start",
                  "[metadata] 7 spike second(s) >= 5 -> "
                  "metadata_multiple_spikes"};
  record.categories = {"read_on_start", "metadata_multiple_spikes"};
  return record;
}

TEST(ProvenanceJson, RoundTripPreservesEveryField) {
  const obs::TraceProvenance record = sample_record();
  const auto parsed = obs::provenance_from_json(obs::provenance_to_json(record));
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();

  EXPECT_EQ(parsed->app_key, record.app_key);
  EXPECT_EQ(parsed->job_id, record.job_id);
  EXPECT_DOUBLE_EQ(parsed->runtime, record.runtime);
  EXPECT_EQ(parsed->nprocs, record.nprocs);

  EXPECT_EQ(parsed->read.merge.raw_ops, 100u);
  EXPECT_EQ(parsed->read.merge.after_concurrent, 60u);
  EXPECT_EQ(parsed->read.merge.merged_ops, 40u);
  EXPECT_DOUBLE_EQ(parsed->read.merge.covered_seconds_before, 12.5);
  EXPECT_EQ(parsed->read.segments, 39u);

  const auto& ms = parsed->read.periodicity.mean_shift;
  EXPECT_TRUE(ms.ran);
  EXPECT_EQ(ms.points, 39u);
  EXPECT_EQ(ms.iterations, 87u);
  ASSERT_EQ(ms.candidates.size(), 2u);
  EXPECT_TRUE(ms.candidates[0].accepted);
  EXPECT_EQ(ms.candidates[1].rejected_by, "duration-cv");
  ASSERT_EQ(parsed->read.periodicity.groups.size(), 1u);
  EXPECT_EQ(parsed->read.periodicity.groups[0].magnitude, "minute");
  EXPECT_DOUBLE_EQ(parsed->read.periodicity.confidence, 0.42);

  EXPECT_EQ(parsed->read.temporality.chunk_bytes,
            record.read.temporality.chunk_bytes);
  EXPECT_EQ(parsed->read.temporality.rule, "chunk-dominance");
  EXPECT_EQ(parsed->read.temporality.dominant_chunk, 0);

  const auto& freq = parsed->write.periodicity.frequency;
  EXPECT_TRUE(freq.ran);
  ASSERT_EQ(freq.peaks.size(), 1u);
  EXPECT_TRUE(freq.peaks[0].accepted);

  EXPECT_EQ(parsed->metadata.total_requests, 5000u);
  EXPECT_EQ(parsed->metadata.spike_seconds, 7u);
  EXPECT_TRUE(parsed->metadata.multiple_spikes);
  EXPECT_FALSE(parsed->metadata.insignificant);
  EXPECT_EQ(parsed->rules, record.rules);
  EXPECT_EQ(parsed->categories, record.categories);
}

TEST(ProvenanceJson, RejectsNonObject) {
  EXPECT_FALSE(obs::provenance_from_json(json::Value(3.0)).has_value());
}

TEST(ProvenanceExplain, RendersTheDecisionPath) {
  const std::string text = obs::explain_text(sample_record());
  EXPECT_NE(text.find("u1/app_v1"), std::string::npos);
  EXPECT_NE(text.find("job 42"), std::string::npos);
  EXPECT_NE(text.find("[read] merge"), std::string::npos);
  EXPECT_NE(text.find("mean-shift"), std::string::npos);
  EXPECT_NE(text.find("duration-cv"), std::string::npos);
  EXPECT_NE(text.find("chunk-dominance"), std::string::npos);
  EXPECT_NE(text.find("metadata_multiple_spikes"), std::string::npos);
  EXPECT_NE(text.find("read_on_start"), std::string::npos);
}

TEST(ProvenanceJournal, SamplesOneInEvery) {
  // About one trace in three, chosen by app key and job id: asking again,
  // in any order, gives the same answer, and every trace is sampled at 1.
  auto& journal = obs::ProvenanceJournal::global();
  journal.disable();
  journal.reset();
  EXPECT_FALSE(journal.should_sample("u", "app", 1));

  journal.enable(3);
  std::vector<bool> first;
  for (std::uint64_t job = 0; job < 900; ++job) {
    first.push_back(journal.should_sample("u", "app", job));
  }
  const auto sampled = std::count(first.begin(), first.end(), true);
  EXPECT_GE(sampled, 240);
  EXPECT_LE(sampled, 360);
  for (std::uint64_t job = 900; job-- > 0;) {
    EXPECT_EQ(journal.should_sample("u", "app", job), first[job]) << job;
  }
  // The app key is part of the decision, not only the job id.
  std::size_t differs = 0;
  for (std::uint64_t job = 0; job < 900; ++job) {
    if (journal.should_sample("v", "app", job) != first[job]) ++differs;
  }
  EXPECT_GT(differs, 0u);

  journal.enable(1);
  for (std::uint64_t job = 0; job < 10; ++job) {
    EXPECT_TRUE(journal.should_sample("u", "app", job));
  }
  journal.disable();
  EXPECT_FALSE(journal.should_sample("u", "app", 1));
  journal.reset();
}

TEST(ProvenanceJournal, CollectSortsAndCounterTracksRecords) {
  auto& journal = obs::ProvenanceJournal::global();
  journal.disable();
  journal.reset();
  const std::uint64_t before =
      obs::Registry::global()
          .counter(obs::names::kProvenanceRecords)
          .value();

  obs::TraceProvenance b = sample_record();
  b.app_key = "b/app";
  b.job_id = 2;
  obs::TraceProvenance a1 = sample_record();
  a1.app_key = "a/app";
  a1.job_id = 9;
  obs::TraceProvenance a0 = sample_record();
  a0.app_key = "a/app";
  a0.job_id = 3;
  journal.record(std::move(b));
  journal.record(std::move(a1));
  journal.record(std::move(a0));

  EXPECT_EQ(journal.size(), 3u);
  EXPECT_EQ(obs::Registry::global()
                .counter(obs::names::kProvenanceRecords)
                .value(),
            before + 3);
  const std::vector<obs::TraceProvenance> sorted = journal.collect();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].app_key, "a/app");
  EXPECT_EQ(sorted[0].job_id, 3u);
  EXPECT_EQ(sorted[1].job_id, 9u);
  EXPECT_EQ(sorted[2].app_key, "b/app");
  journal.reset();
  EXPECT_EQ(journal.size(), 0u);
}

TEST(ProvenanceJournal, JsonlRoundTripThroughDisk) {
  auto& journal = obs::ProvenanceJournal::global();
  journal.disable();
  journal.reset();
  journal.record(sample_record());
  const std::string path =
      (fs::temp_directory_path() / "mosaic_provenance_test.jsonl").string();
  ASSERT_TRUE(journal.write_jsonl(path).ok());
  journal.reset();

  const auto loaded = obs::read_provenance_jsonl(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().to_string();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].app_key, "u1/app_v1");
  EXPECT_EQ((*loaded)[0].categories, sample_record().categories);
  fs::remove(path);
}

TEST(ProvenanceJournal, ReadReportsMalformedLine) {
  const std::string path =
      (fs::temp_directory_path() / "mosaic_provenance_bad.jsonl").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"app_key\":\"ok\"}\nnot json\n", f);
    std::fclose(f);
  }
  const auto loaded = obs::read_provenance_jsonl(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.error().message.find(":2:"), std::string::npos)
      << loaded.error().message;
  fs::remove(path);
}

/// The integration contract behind `mosaic explain`: the captured evidence
/// agrees with the pipeline's returned result, so rendering the record IS
/// rendering the decision path.
TEST(ProvenancePipeline, EvidenceAgreesWithAnalysisResult) {
  sim::PopulationConfig config;
  config.target_traces = 40;
  config.seed = 77;
  config.corruption_fraction = 0.0;
  const sim::Population population = sim::generate_population(config);

  const core::Analyzer analyzer;
  std::size_t checked = 0;
  for (const sim::LabeledTrace& labeled : population.traces) {
    obs::TraceProvenance evidence;
    const core::TraceResult result =
        analyzer.analyze(labeled.trace, &evidence);
    EXPECT_EQ(evidence.app_key, result.app_key);
    EXPECT_EQ(evidence.job_id, result.job_id);
    EXPECT_EQ(evidence.categories, result.categories.names());
    EXPECT_EQ(evidence.read.periodicity.periodic,
              result.read.periodicity.periodic);
    EXPECT_EQ(evidence.write.periodicity.periodic,
              result.write.periodicity.periodic);
    EXPECT_FALSE(evidence.read.temporality.rule.empty());
    EXPECT_FALSE(evidence.write.temporality.label.empty());
    EXPECT_FALSE(evidence.rules.empty());
    EXPECT_GE(evidence.read.temporality.confidence, 0.0);
    EXPECT_LE(evidence.read.temporality.confidence, 1.0);
    EXPECT_GE(evidence.metadata.confidence, 0.0);
    EXPECT_LE(evidence.metadata.confidence, 1.0);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

/// The journal gate inside analyze(): enabled with sampling 1, every trace
/// lands in the journal and matches a JSON round-trip of itself.
TEST(ProvenancePipeline, JournalGateCapturesSampledTraces) {
  auto& journal = obs::ProvenanceJournal::global();
  journal.disable();
  journal.reset();

  sim::PopulationConfig config;
  config.target_traces = 12;
  config.seed = 5;
  config.corruption_fraction = 0.0;
  const sim::Population population = sim::generate_population(config);

  const core::Analyzer analyzer;
  journal.enable(1);
  for (const sim::LabeledTrace& labeled : population.traces) {
    (void)analyzer.analyze(labeled.trace);
  }
  journal.disable();
  EXPECT_EQ(journal.size(), population.traces.size());
  journal.reset();
}

TEST(ProvenanceJournal, RingOverwritesOldestOnceCapacityIsReached) {
  auto& journal = obs::ProvenanceJournal::global();
  journal.reset();
  journal.enable(/*sample_every=*/1, /*capacity=*/4);

  for (std::uint64_t i = 0; i < 10; ++i) {
    obs::TraceProvenance record;
    record.app_key = "u/ring";
    record.job_id = i;
    journal.record(std::move(record));
  }
  journal.disable();

  EXPECT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal.dropped(), 6u);
  // The ring keeps the newest records; the first six were overwritten.
  const std::vector<obs::TraceProvenance> records = journal.collect();
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].job_id, 6 + i);
  }

  journal.reset();
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_EQ(journal.dropped(), 0u);
}

TEST(ProvenanceJournal, WriteToDirNamesDroppedRecords) {
  auto& journal = obs::ProvenanceJournal::global();
  journal.reset();
  journal.enable(/*sample_every=*/1, /*capacity=*/2);
  const std::string dir =
      (fs::temp_directory_path() / "mosaic_provenance_dropped").string();
  fs::remove_all(dir);

  obs::TraceProvenance record;
  record.app_key = "u/app";
  journal.record(record);
  journal.record(record);
  auto written = journal.write_to_dir(dir);
  ASSERT_TRUE(written.has_value()) << written.error().to_string();
  EXPECT_EQ(*written, "provenance (2 record(s)) written to " + dir +
                          "/provenance.jsonl");

  std::FILE* log = std::tmpfile();
  ASSERT_NE(log, nullptr);
  util::set_log_stream(log);
  journal.record(record);
  written = journal.write_to_dir(dir);
  util::set_log_stream(nullptr);
  std::rewind(log);
  std::string logged(256, '\0');
  logged.resize(std::fread(logged.data(), 1, logged.size(), log));
  std::fclose(log);

  ASSERT_TRUE(written.has_value()) << written.error().to_string();
  EXPECT_EQ(*written, "provenance (2 record(s), 1 dropped) written to " +
                          dir + "/provenance.jsonl");
  EXPECT_NE(logged.find("1 record(s) dropped"), std::string::npos) << logged;
  auto records = obs::read_provenance_jsonl(dir + "/provenance.jsonl");
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ(records->size(), 2u);

  journal.disable();
  journal.reset();
  fs::remove_all(dir);
}

TEST(ProvenanceJournal, ZeroCapacityClampsToOne) {
  auto& journal = obs::ProvenanceJournal::global();
  journal.reset();
  journal.enable(/*sample_every=*/1, /*capacity=*/0);

  for (std::uint64_t i = 0; i < 3; ++i) {
    obs::TraceProvenance record;
    record.job_id = i;
    journal.record(std::move(record));
  }
  journal.disable();

  EXPECT_EQ(journal.size(), 1u);
  EXPECT_EQ(journal.dropped(), 2u);
  EXPECT_EQ(journal.collect().at(0).job_id, 2u);
  journal.reset();
}

}  // namespace
