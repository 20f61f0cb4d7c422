// Robustness tests: the parsers must reject arbitrary garbage gracefully —
// never crash, never hang, never fabricate a valid-looking trace from noise.
// A year-scale ingest job will see every kind of mangled input.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>

#include "../json/decoder_samples.hpp"
#include "core/config.hpp"
#include "darshan/binary_format.hpp"
#include "darshan/text_format.hpp"
#include "dist/telemetry.hpp"
#include "json/json.hpp"
#include "json/reader.hpp"
#include "report/json_output.hpp"
#include "sim/truth.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mosaic {
namespace {

std::vector<std::byte> random_bytes(util::Rng& rng, std::size_t size) {
  std::vector<std::byte> bytes(size);
  for (auto& b : bytes) {
    b = static_cast<std::byte>(rng.uniform_int(0, 255));
  }
  return bytes;
}

std::string random_text(util::Rng& rng, std::size_t size) {
  static constexpr char kAlphabet[] =
      "POSIX_BYTES_READ\t-1 0123456789.eE+\n# :{}[]\"\\abcxyz";
  std::string text;
  text.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    text += kAlphabet[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(sizeof kAlphabet) - 2))];
  }
  return text;
}

TEST(FuzzMbt, RandomBuffersNeverCrash) {
  util::Rng rng(101);
  for (int trial = 0; trial < 500; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 2048));
    const auto bytes = random_bytes(rng, size);
    const auto result = darshan::parse_mbt(bytes);
    // Random bytes essentially never carry a valid FNV trailer.
    EXPECT_FALSE(result.has_value());
  }
}

TEST(FuzzMbt, MutatedValidBufferNeverCrashes) {
  trace::Trace t;
  t.meta.job_id = 5;
  t.meta.app_name = "fuzz";
  t.meta.user = "u";
  t.meta.nprocs = 8;
  t.meta.run_time = 100.0;
  for (int i = 0; i < 5; ++i) {
    trace::FileRecord file;
    file.file_id = static_cast<std::uint64_t>(i);
    file.file_name = "/f" + std::to_string(i);
    file.bytes_written = 1u << 20;
    file.writes = 4;
    file.opens = 1;
    file.closes = 1;
    file.open_ts = 1.0;
    file.close_ts = 99.0;
    file.first_write_ts = 2.0;
    file.last_write_ts = 98.0;
    t.files.push_back(file);
  }
  const auto pristine = darshan::to_mbt(t);

  util::Rng rng(103);
  for (int trial = 0; trial < 500; ++trial) {
    auto mutated = pristine;
    // Flip a few random bytes and/or truncate.
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[at] ^= static_cast<std::byte>(rng.uniform_int(1, 255));
    }
    if (rng.chance(0.3)) {
      mutated.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()))));
    }
    // Must not crash; almost always detected via checksum.
    (void)darshan::parse_mbt(mutated);
  }
}

// Builds a small but fully-populated trace so the encoded MBT buffer
// exercises every field kind (ints, doubles, strings, file records).
trace::Trace make_reference_trace() {
  trace::Trace t;
  t.meta.job_id = 77;
  t.meta.app_name = "exhaustive";
  t.meta.user = "fuzzer";
  t.meta.nprocs = 16;
  t.meta.start_time = 100.0;
  t.meta.run_time = 250.0;
  for (int i = 0; i < 3; ++i) {
    trace::FileRecord file;
    file.file_id = static_cast<std::uint64_t>(1000 + i);
    file.file_name = "/scratch/out." + std::to_string(i);
    file.rank = i;
    file.bytes_read = 512u << i;
    file.bytes_written = 4096u << i;
    file.reads = 2;
    file.writes = 8;
    file.opens = 1;
    file.closes = 1;
    file.open_ts = 1.0 + i;
    file.close_ts = 240.0;
    file.first_write_ts = 2.0;
    file.last_write_ts = 239.0;
    t.files.push_back(file);
  }
  return t;
}

// Every possible truncation of a valid MBT buffer must be rejected as a
// corrupt trace — never accepted, never misclassified, never a crash.
TEST(FuzzMbtExhaustive, EveryTruncationIsCorruptTrace) {
  const auto pristine = darshan::to_mbt(make_reference_trace());
  ASSERT_TRUE(darshan::parse_mbt(pristine).has_value());
  for (std::size_t len = 0; len < pristine.size(); ++len) {
    std::vector<std::byte> cut(pristine.begin(),
                               pristine.begin() + static_cast<long>(len));
    const auto result = darshan::parse_mbt(cut);
    ASSERT_FALSE(result.has_value()) << "accepted truncation to " << len;
    EXPECT_EQ(result.error().code, util::ErrorCode::kCorruptTrace)
        << "truncation to " << len << " bytes misclassified as "
        << util::error_code_name(result.error().code);
  }
}

// Every possible single-bit flip must be caught: the FNV-1a trailer covers
// the entire body (magic and version included), and FNV-1a is injective
// under a one-byte change with all other bytes fixed, so a payload flip
// always changes the digest and a trailer flip always changes the
// expectation. There is no unprotected byte.
TEST(FuzzMbtExhaustive, EverySingleBitFlipIsCorruptTrace) {
  const auto pristine = darshan::to_mbt(make_reference_trace());
  for (std::size_t at = 0; at < pristine.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = pristine;
      mutated[at] ^= static_cast<std::byte>(1u << bit);
      const auto result = darshan::parse_mbt(mutated);
      ASSERT_FALSE(result.has_value())
          << "accepted flip of bit " << bit << " at byte " << at;
      EXPECT_EQ(result.error().code, util::ErrorCode::kCorruptTrace)
          << "flip at byte " << at << " bit " << bit << " misclassified as "
          << util::error_code_name(result.error().code);
    }
  }
}

TEST(FuzzDarshanText, RandomTextNeverCrashes) {
  util::Rng rng(107);
  for (int trial = 0; trial < 300; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 4096));
    const std::string text = random_text(rng, size);
    const auto result = darshan::parse_text(text);
    if (result.has_value()) {
      // Whatever parsed must at least satisfy the header contract.
      EXPECT_GT(result->meta.run_time, 0.0);
    }
  }
}

TEST(FuzzDarshanText, HeaderOnlyVariations) {
  util::Rng rng(109);
  const char* headers[] = {"# run time: ",  "# nprocs: ", "# jobid: ",
                           "# start_time: ", "# uid: ",    "# exe: "};
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    const int lines = static_cast<int>(rng.uniform_int(0, 8));
    for (int l = 0; l < lines; ++l) {
      text += headers[rng.uniform_int(0, 5)];
      text += random_text(rng, static_cast<std::size_t>(rng.uniform_int(0, 30)));
      text += '\n';
    }
    (void)darshan::parse_text(text);
  }
}

TEST(FuzzJson, RandomTextNeverCrashes) {
  util::Rng rng(113);
  for (int trial = 0; trial < 500; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 2048));
    (void)json::parse(random_text(rng, size));
  }
}

TEST(FuzzJson, MutatedValidDocumentNeverCrashes) {
  const std::string pristine =
      R"({"a": [1, 2.5, true, null], "b": {"c": "text", "d": [{"e": 1}]}})";
  util::Rng rng(127);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = pristine;
    const int flips = static_cast<int>(rng.uniform_int(1, 5));
    for (int f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[at] = static_cast<char>(rng.uniform_int(32, 126));
    }
    const auto result = json::parse(mutated);
    if (result.has_value()) {
      // Anything accepted must re-serialize and re-parse cleanly.
      const auto again = json::parse(json::serialize(*result));
      EXPECT_TRUE(again.has_value());
    }
  }
}

// --- decoders of outside JSON ------------------------------------------------

/// Decodes (possibly mutated) text; when the decoder accepts it, the value
/// must re-encode and decode again. Returns whether the text was accepted.
using RoundTrip = std::function<bool(std::string_view text)>;

template <typename Decode, typename Encode>
RoundTrip round_trip(Decode decode, Encode encode) {
  return [decode, encode](std::string_view text) {
    const auto decoded = decode(text);
    if (!decoded.has_value()) return false;
    const std::string again = encode(*decoded);
    EXPECT_TRUE(decode(again).has_value()) << again;
    return true;
  };
}

/// Lifts a decoder of a parsed document to one of text.
template <typename T>
auto from_text(util::Expected<T> (*decode)(const json::Value&)) {
  return [decode](std::string_view text) -> util::Expected<T> {
    auto parsed = json::parse(text);
    if (!parsed.has_value()) return std::move(parsed).error();
    return decode(*parsed);
  };
}

template <typename Encode>
auto to_text(Encode encode) {
  return [encode](const auto& value) { return json::serialize(encode(value)); };
}

/// A JSONL artifact reader over one line, written to a temporary file.
template <typename Load>
auto from_line(Load load) {
  return [load](std::string_view line) {
    const std::string path = samples::line_file(line);
    auto loaded = load(path);
    std::filesystem::remove(path);
    return loaded;
  };
}

util::Expected<std::optional<dist::TelemetryPayload>> rider_from_text(
    std::string_view text) {
  auto parsed = json::parse(text);
  if (!parsed.has_value()) return std::move(parsed).error();
  auto telemetry = dist::telemetry_from_payload(*parsed);
  if (telemetry.has_value() && !telemetry->has_value()) {
    return util::Error{util::ErrorCode::kNotFound, "no rider"};
  }
  return telemetry;
}

std::string rider_to_text(
    const std::optional<dist::TelemetryPayload>& telemetry) {
  std::vector<obs::SpanEvent> spans;
  for (const obs::FleetSpan& span : telemetry->spans) {
    spans.push_back({span.name.c_str(), span.start_ns, span.end_ns, span.tid});
  }
  json::Object rider;
  rider.set("snapshot", obs::metrics_to_json(telemetry->snapshot));
  rider.set("health", telemetry->health);
  rider.set("spans", obs::spans_to_wire_json(spans));
  json::Object frame;
  frame.set("telemetry", std::move(rider));
  return json::serialize(json::Value(std::move(frame)));
}

util::Expected<obs::Snapshot> metrics_from_json(const json::Value& value) {
  const json::Reader reader(value, "metrics json");
  return reader.finish(obs::snapshot_from_metrics_json(reader));
}

struct DecoderCase {
  const char* decoder;
  std::string document;  ///< valid
  RoundTrip check;
};

std::vector<DecoderCase> decoder_cases() {
  using namespace mosaic::samples;
  const auto serialize = [](const json::Value& value) {
    return json::serialize(value, /*pretty=*/false);
  };
  std::vector<DecoderCase> out;
  out.push_back({"trace result",
                 serialize(report::trace_result_to_json(trace_result())),
                 round_trip(from_text(report::trace_result_from_json),
                            to_text(report::trace_result_to_json))});
  out.push_back({"partial", serialize(report::partial_to_json(partial())),
                 round_trip(from_text(report::partial_from_json),
                            to_text(report::partial_to_json))});
  out.push_back({"task request", dist::task_request_to_payload(task_request()),
                 round_trip(dist::task_request_from_payload,
                            dist::task_request_to_payload)});
  out.push_back({"task error",
                 dist::task_error_to_payload({util::ErrorCode::kTimeout, "x"}),
                 [](std::string_view text) {
                   // Never fails: an undecodable payload describes itself.
                   const util::Error error =
                       dist::task_error_from_payload(text);
                   const util::Error again = dist::task_error_from_payload(
                       dist::task_error_to_payload(error));
                   EXPECT_EQ(again.code, error.code);
                   EXPECT_EQ(again.message, error.message);
                   return true;
                 }});
  out.push_back({"hello", dist::hello_payload(), [](std::string_view text) {
                   (void)dist::hello_now_ns(text);
                   return dist::check_hello_payload(text).ok();
                 }});
  out.push_back({"submit request",
                 dist::submit_request_to_payload({"a.mbt", "MBT1\x01\xff"}),
                 round_trip(dist::submit_request_from_payload,
                            dist::submit_request_to_payload)});
  out.push_back({"submit reply",
                 dist::submit_reply_to_payload(
                     {true, "9000002", "u1/app", true, {"read_steady"}, ""}),
                 round_trip(dist::submit_reply_from_payload,
                            dist::submit_reply_to_payload)});
  out.push_back({"telemetry rider", serialize(telemetry_frame()),
                 round_trip(rider_from_text, rider_to_text)});
  out.push_back({"metrics json", serialize(obs::metrics_to_json(snapshot())),
                 round_trip(from_text(metrics_from_json),
                            to_text(obs::metrics_to_json))});
  out.push_back({"health rules",
                 serialize(obs::health_rules_to_json(health_rules())),
                 round_trip(from_text(obs::health_rules_from_json),
                            to_text(obs::health_rules_to_json))});
  out.push_back({"thresholds", serialize(core::thresholds_to_json({})),
                 round_trip(from_text(core::thresholds_from_json),
                            to_text(core::thresholds_to_json))});
  out.push_back({"provenance", serialize(obs::provenance_to_json(provenance())),
                 round_trip(from_text(obs::provenance_from_json),
                            to_text(obs::provenance_to_json))});
  const auto truth_round_trip = [](std::string_view line) {
    const std::string path = samples::line_file(line);
    auto records = sim::read_truth_jsonl(path);
    if (records.has_value()) {
      EXPECT_TRUE(sim::write_truth_jsonl(*records, path).ok());
      EXPECT_TRUE(sim::read_truth_jsonl(path).has_value());
    }
    std::filesystem::remove(path);
    return records.has_value();
  };
  out.push_back({"truth",
                 R"({"app_key":"u1/app","job_id":9000002,)"
                 R"("archetype":"steady","ambiguous":false,)"
                 R"("categories":["read_steady"]})",
                 truth_round_trip});
  const auto one_entry = [](const auto& loaded) {
    return loaded.has_value() && loaded->size() == 1;
  };
  const auto ingest_load = from_line(
      [](const std::string& path) { return ingest::load_journal(path); });
  out.push_back({"ingest journal", ingest::journal_line(ingest_entry()),
                 [ingest_load, one_entry](std::string_view line) {
                   const auto loaded = ingest_load(line);
                   if (!one_entry(loaded)) return false;
                   EXPECT_TRUE(one_entry(ingest_load(ingest::journal_line(
                       loaded->begin()->second))));
                   return true;
                 }});
  const auto dispatch_load = from_line([](const std::string& path) {
    return dist::load_dispatch_journal(path);
  });
  out.push_back({"dispatch journal",
                 dist::dispatch_journal_line(dispatch_entry()),
                 [dispatch_load, one_entry](std::string_view line) {
                   const auto loaded = dispatch_load(line);
                   if (!one_entry(loaded)) return false;
                   EXPECT_TRUE(one_entry(dispatch_load(
                       dist::dispatch_journal_line(loaded->begin()->second))));
                   return true;
                 }});
  return out;
}

TEST(FuzzDecoders, EveryValidDocumentRoundTrips) {
  for (const DecoderCase& c : decoder_cases()) {
    EXPECT_TRUE(c.check(c.document)) << c.decoder << ": " << c.document;
  }
}

TEST(FuzzDecoders, MutatedDocumentsNeverCrashAndAcceptedOnesRoundTrip) {
  // Half the substitutions come from number syntax, so mutations keep
  // landing on integer members as well as on structure.
  static constexpr char kNumberBytes[] = "0123456789-+.eE";
  util::Rng rng(139);
  for (const DecoderCase& c : decoder_cases()) {
    SCOPED_TRACE(c.decoder);
    for (int trial = 0; trial < 300; ++trial) {
      std::string mutated = c.document;
      const int flips = static_cast<int>(rng.uniform_int(1, 2));
      for (int f = 0; f < flips; ++f) {
        const auto at = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(mutated.size()) - 1));
        mutated[at] =
            rng.uniform_int(0, 1) == 0
                ? kNumberBytes[rng.uniform_int(0, sizeof kNumberBytes - 2)]
                : static_cast<char>(rng.uniform_int(32, 126));
      }
      (void)c.check(mutated);
    }
  }
}

TEST(FuzzRoundTrip, RandomTracesSurviveBothFormats) {
  util::Rng rng(131);
  for (int trial = 0; trial < 50; ++trial) {
    trace::Trace t;
    t.meta.job_id = rng();
    t.meta.app_name = "app_" + std::to_string(trial);
    t.meta.user = "u" + std::to_string(trial % 7);
    t.meta.nprocs = static_cast<std::uint32_t>(rng.uniform_int(1, 4096));
    t.meta.run_time = rng.uniform(1.0, 1e6);
    const int files = static_cast<int>(rng.uniform_int(0, 20));
    for (int f = 0; f < files; ++f) {
      trace::FileRecord record;
      record.file_id = rng();
      record.file_name = "/p/" + std::to_string(rng() % 1000);
      record.rank = static_cast<std::int32_t>(rng.uniform_int(-1, 100));
      record.bytes_read = rng() % (1ull << 40);
      record.bytes_written = rng() % (1ull << 40);
      record.reads = rng() % 10000;
      record.writes = rng() % 10000;
      record.opens = rng() % 1000;
      record.closes = record.opens;
      record.seeks = rng() % 1000;
      record.open_ts = rng.uniform(0.0, t.meta.run_time);
      record.close_ts = rng.uniform(record.open_ts, t.meta.run_time);
      record.first_read_ts = record.open_ts;
      record.last_read_ts = record.close_ts;
      record.first_write_ts = record.open_ts;
      record.last_write_ts = record.close_ts;
      t.files.push_back(record);
    }

    const auto via_mbt = darshan::parse_mbt(darshan::to_mbt(t));
    ASSERT_TRUE(via_mbt.has_value());
    EXPECT_EQ(via_mbt->files.size(), t.files.size());
    EXPECT_EQ(via_mbt->total_bytes(), t.total_bytes());

    const auto via_text = darshan::parse_text(darshan::to_text(t));
    ASSERT_TRUE(via_text.has_value());
    EXPECT_EQ(via_text->total_bytes(), t.total_bytes());
  }
}

}  // namespace
}  // namespace mosaic
