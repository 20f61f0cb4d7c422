#include "report/confusion.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/span.hpp"
#include "report/tables.hpp"

namespace mosaic::report {

namespace {

/// Parses a name list back into the category bitmask; unknown names (from a
/// newer or older writer) are ignored.
core::CategorySet set_from_names(const std::vector<std::string>& names) {
  core::CategorySet set;
  for (const std::string& name : names) {
    if (const auto category = core::category_from_name(name);
        category.has_value()) {
      set.insert(*category);
    }
  }
  return set;
}

/// Decision-margin bucket edges: fine near 0 (the straddling zone the
/// drill-down exists to surface), coarse toward 1.
constexpr double kConfidenceEdges[] = {0.01, 0.02, 0.05, 0.1,
                                       0.2,  0.35, 0.5,  0.75};

struct AxisView {
  const char* name;
  double confidence;
  bool matched;
};

void tally(AxisAccuracy& axis, bool ok) {
  ++axis.total;
  if (ok) ++axis.correct;
}

std::string format_ratio(double value) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%.1f%%", value * 100.0);
  return buffer;
}

std::string format_confidence(double value) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%.3f", value);
  return buffer;
}

}  // namespace

ConfusionReport build_confusion(
    const std::vector<obs::TraceProvenance>& records,
    const std::vector<sim::TruthRecord>& truths,
    std::size_t max_straddling) {
  MOSAIC_SPAN("report-confusion");
  static obs::Histogram& stage_ms = obs::Registry::global().histogram(
      obs::names::kReportConfusionMs, obs::latency_buckets_ms(),
      "confusion drill-down stage latency (ms)");
  const obs::ScopedTimerMs timer(stage_ms);

  std::map<std::uint64_t, const sim::TruthRecord*> truth_by_job;
  for (const sim::TruthRecord& truth : truths) {
    truth_by_job.emplace(truth.job_id, &truth);
  }

  const AxisMasks masks = axis_masks();
  ConfusionReport report;

  // Per-category confusion counts, indexed by the enum.
  std::array<CategoryConfusion, core::kCategoryCount> cells;

  // Per-axis margin distributions, bucketed by the obs histogram type.
  const std::vector<double> edges(std::begin(kConfidenceEdges),
                                  std::end(kConfidenceEdges));
  obs::Histogram read_temp_hist(edges);
  obs::Histogram write_temp_hist(edges);
  obs::Histogram read_periodic_hist(edges);
  obs::Histogram write_periodic_hist(edges);
  obs::Histogram metadata_hist(edges);

  for (const obs::TraceProvenance& record : records) {
    const auto it = truth_by_job.find(record.job_id);
    if (it == truth_by_job.end()) {
      ++report.missing_truth;
      continue;
    }
    ++report.joined;
    const sim::TruthRecord& truth = *it->second;
    const core::CategorySet predicted = set_from_names(record.categories);
    const core::CategorySet planted = set_from_names(truth.categories);

    const AxisView axes[] = {
        {"read_temporality", record.read.temporality.confidence,
         axis_matches(predicted, planted, masks.read_temporality)},
        {"write_temporality", record.write.temporality.confidence,
         axis_matches(predicted, planted, masks.write_temporality)},
        {"read_periodicity", record.read.periodicity.confidence,
         axis_matches(predicted, planted, masks.read_periodicity)},
        {"write_periodicity", record.write.periodicity.confidence,
         axis_matches(predicted, planted, masks.write_periodicity)},
        {"metadata", record.metadata.confidence,
         axis_matches(predicted, planted, masks.metadata)},
    };
    tally(report.read_temporality, axes[0].matched);
    tally(report.write_temporality, axes[1].matched);
    tally(report.read_periodicity, axes[2].matched);
    tally(report.write_periodicity, axes[3].matched);
    tally(report.metadata, axes[4].matched);
    const bool all_ok = std::all_of(std::begin(axes), std::end(axes),
                                    [](const AxisView& a) { return a.matched; });
    tally(report.overall, all_ok);

    read_temp_hist.observe(axes[0].confidence);
    write_temp_hist.observe(axes[1].confidence);
    read_periodic_hist.observe(axes[2].confidence);
    write_periodic_hist.observe(axes[3].confidence);
    metadata_hist.observe(axes[4].confidence);

    for (std::size_t c = 0; c < core::kCategoryCount; ++c) {
      const auto category = static_cast<core::Category>(c);
      const bool was_predicted = predicted.contains(category);
      const bool was_planted = planted.contains(category);
      if (was_predicted && was_planted) {
        ++cells[c].true_positive;
      } else if (was_predicted) {
        ++cells[c].false_positive;
      } else if (was_planted) {
        ++cells[c].false_negative;
      } else {
        ++cells[c].true_negative;
      }
    }

    const AxisView* weakest = std::min_element(
        std::begin(axes), std::end(axes),
        [](const AxisView& a, const AxisView& b) {
          return a.confidence < b.confidence;
        });
    StraddlingCase straddling;
    straddling.app_key = record.app_key;
    straddling.job_id = record.job_id;
    straddling.axis = weakest->name;
    straddling.confidence = weakest->confidence;
    straddling.mismatched = !all_ok;
    straddling.truth_ambiguous = truth.ambiguous;
    report.straddling.push_back(std::move(straddling));
  }

  for (std::size_t c = 0; c < core::kCategoryCount; ++c) {
    CategoryConfusion& cell = cells[c];
    if (cell.true_positive + cell.false_positive + cell.false_negative == 0) {
      continue;  // no support on either side: uninteresting row
    }
    cell.category = core::category_name(static_cast<core::Category>(c));
    report.categories.push_back(cell);
  }

  const auto export_hist = [](const char* axis, const obs::Histogram& hist) {
    AxisConfidence out;
    out.axis = axis;
    out.bounds = hist.bounds();
    out.buckets = hist.bucket_counts();
    out.count = hist.count();
    out.sum = hist.sum();
    return out;
  };
  report.confidence.push_back(export_hist("read_temporality", read_temp_hist));
  report.confidence.push_back(
      export_hist("write_temporality", write_temp_hist));
  report.confidence.push_back(
      export_hist("read_periodicity", read_periodic_hist));
  report.confidence.push_back(
      export_hist("write_periodicity", write_periodic_hist));
  report.confidence.push_back(export_hist("metadata", metadata_hist));

  // Rank by ascending margin; ties (e.g. several exact-0 cases) break by
  // job id for deterministic output.
  std::sort(report.straddling.begin(), report.straddling.end(),
            [](const StraddlingCase& a, const StraddlingCase& b) {
              if (a.confidence != b.confidence) {
                return a.confidence < b.confidence;
              }
              return a.job_id < b.job_id;
            });
  if (max_straddling > 0 && report.straddling.size() > max_straddling) {
    report.straddling.resize(max_straddling);
  }
  return report;
}

std::string render_confusion(const ConfusionReport& report) {
  std::string md;
  md += "Joined " + std::to_string(report.joined) +
        " provenance record(s) against ground truth";
  if (report.missing_truth > 0) {
    md += " (" + std::to_string(report.missing_truth) +
          " record(s) had no truth entry and were skipped)";
  }
  md += ".\n\n";

  md += "### Per-axis accuracy\n\n";
  {
    TextTable table({"axis", "correct", "total", "accuracy"});
    const std::pair<const char*, const AxisAccuracy*> axes[] = {
        {"read temporality", &report.read_temporality},
        {"write temporality", &report.write_temporality},
        {"read periodicity", &report.read_periodicity},
        {"write periodicity", &report.write_periodicity},
        {"metadata", &report.metadata},
        {"overall (all axes)", &report.overall},
    };
    for (const auto& [name, axis] : axes) {
      table.add_row({name, std::to_string(axis->correct),
                     std::to_string(axis->total), format_ratio(axis->ratio())});
    }
    md += table.render_markdown();
  }

  md += "\n### Per-category confusion\n\n";
  if (report.categories.empty()) {
    md += "no categories with support\n";
  } else {
    TextTable table({"category", "TP", "FP", "FN", "precision", "recall"});
    for (const CategoryConfusion& cell : report.categories) {
      table.add_row({cell.category, std::to_string(cell.true_positive),
                     std::to_string(cell.false_positive),
                     std::to_string(cell.false_negative),
                     format_ratio(cell.precision()),
                     format_ratio(cell.recall())});
    }
    md += table.render_markdown();
  }

  md += "\n### Decision-margin distribution per axis\n\n";
  md += "Margin 0 means the deciding statistic sat exactly on a rule "
        "boundary; low-margin traces are the expected error sites.\n\n";
  {
    TextTable table({"axis", "traces", "mean margin", "margin <= 0.05"});
    for (const AxisConfidence& axis : report.confidence) {
      std::uint64_t low = 0;
      for (std::size_t b = 0;
           b < axis.bounds.size() && axis.bounds[b] <= 0.05 + 1e-12; ++b) {
        low += axis.buckets[b];
      }
      table.add_row({axis.axis, std::to_string(axis.count),
                     format_confidence(axis.mean()), std::to_string(low)});
    }
    md += table.render_markdown();
  }

  md += "\n### Least-confident (straddling) traces\n\n";
  if (report.straddling.empty()) {
    md += "none\n";
  } else {
    TextTable table(
        {"application", "job", "weakest axis", "margin", "verdict", "planted"});
    for (const StraddlingCase& c : report.straddling) {
      table.add_row({c.app_key, std::to_string(c.job_id), c.axis,
                     format_confidence(c.confidence),
                     c.mismatched ? "MISMATCH" : "correct",
                     c.truth_ambiguous ? "ambiguous" : "clear"});
    }
    md += table.render_markdown();
  }
  return md;
}

}  // namespace mosaic::report
