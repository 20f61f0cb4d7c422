// JSON output of categorization results (paper §III-B4, step (4)).
//
// MOSAIC persists per-trace category assignments plus the calculated values
// behind them (detected periods, chunk volumes, metadata peaks), and a
// population-level summary with both single-run and all-runs statistics.
#pragma once

#include <string>

#include "core/pipeline.hpp"
#include "json/json.hpp"
#include "report/aggregate.hpp"
#include "util/error.hpp"

namespace mosaic::report {

/// One trace's categorization as a JSON object.
[[nodiscard]] json::Value trace_result_to_json(const core::TraceResult& result);

/// Population summary: pre-processing funnel, category distribution
/// (single/all-runs) and run-weight bookkeeping. Per-trace entries are
/// included when `include_traces` (large at year scale).
[[nodiscard]] json::Value batch_to_json(const core::BatchResult& batch,
                                        bool include_traces = false);

/// Serializes `batch_to_json` to a file.
[[nodiscard]] util::Status write_batch_json(const core::BatchResult& batch,
                                            const std::string& path,
                                            bool include_traces = false);

}  // namespace mosaic::report
