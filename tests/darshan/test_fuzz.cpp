// Robustness tests: the parsers must reject arbitrary garbage gracefully —
// never crash, never hang, never fabricate a valid-looking trace from noise.
// A year-scale ingest job will see every kind of mangled input.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <bit>
#include <filesystem>
#include <functional>
#include <map>

#include "../json/decoder_samples.hpp"
#include "core/config.hpp"
#include "darshan/binary_format.hpp"
#include "darshan/text_format.hpp"
#include "dist/protocol.hpp"
#include "dist/telemetry.hpp"
#include "json/json.hpp"
#include "json/reader.hpp"
#include "obs/http.hpp"
#include "report/json_output.hpp"
#include "sim/population.hpp"
#include "sim/truth.hpp"
#include "text_oracle.hpp"
#include "util/error.hpp"
#include "util/net.hpp"
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

// ---- Differential: the one-pass parser against the reference oracle ----

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Both parsers take the same decision on `text`: the same error code and
/// message, or traces equal field by field with doubles compared bitwise.
::testing::AssertionResult same_parse_as_oracle(const std::string& text) {
  const auto got = darshan::parse_text(text);
  const auto want = darshan::oracle::parse_text(text);
  auto failure = [&]() -> ::testing::AssertionResult {
    return ::testing::AssertionFailure()
           << "parser: "
           << (got.has_value() ? "accepted" : got.error().to_string())
           << "; oracle: "
           << (want.has_value() ? "accepted" : want.error().to_string())
           << "; document:\n"
           << text;
  };
  if (got.has_value() != want.has_value()) return failure() << "\n(decision)";
  if (!want.has_value()) {
    if (got.error().code != want.error().code ||
        got.error().message != want.error().message) {
      return failure() << "\n(error)";
    }
    return ::testing::AssertionSuccess();
  }
  const trace::JobMeta& a = got->meta;
  const trace::JobMeta& b = want->meta;
  if (a.job_id != b.job_id || a.app_name != b.app_name || a.user != b.user ||
      a.nprocs != b.nprocs || !same_bits(a.start_time, b.start_time) ||
      !same_bits(a.run_time, b.run_time)) {
    return failure() << "\n(meta)";
  }
  if (got->files.size() != want->files.size()) {
    return failure() << "\n(" << got->files.size() << " records against "
                     << want->files.size() << ")";
  }
  for (std::size_t i = 0; i < got->files.size(); ++i) {
    const trace::FileRecord& x = got->files[i];
    const trace::FileRecord& y = want->files[i];
    if (x.file_id != y.file_id || x.file_name != y.file_name ||
        x.rank != y.rank || x.bytes_read != y.bytes_read ||
        x.bytes_written != y.bytes_written || x.reads != y.reads ||
        x.writes != y.writes || x.opens != y.opens || x.closes != y.closes ||
        x.seeks != y.seeks || !same_bits(x.open_ts, y.open_ts) ||
        !same_bits(x.close_ts, y.close_ts) ||
        !same_bits(x.first_read_ts, y.first_read_ts) ||
        !same_bits(x.last_read_ts, y.last_read_ts) ||
        !same_bits(x.first_write_ts, y.first_write_ts) ||
        !same_bits(x.last_write_ts, y.last_write_ts)) {
      return failure() << "\n(record " << i << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Documents to mutate: `to_text` renderings of a small generated population
/// (corrupted runs included), and darshan-parser shaped rows of the MPI-IO,
/// STDIO and LUSTRE modules that `to_text` never writes.
std::vector<std::string> darshan_text_seeds() {
  sim::PopulationConfig config;
  config.target_traces = 40;
  config.seed = 22;
  std::vector<std::string> seeds;
  for (auto& labeled : sim::generate_population(config).traces) {
    // A few records per document keep each parse short.
    if (labeled.trace.files.size() > 6) labeled.trace.files.resize(6);
    seeds.push_back(darshan::to_text(labeled.trace));
  }
  const std::string header =
      "# darshan log version: 3.10\n"
      "# exe: /u/sciteam/user/bin/lmp_bw -in in.script\n"
      "# uid: 380111\n"
      "# jobid: 9807799\n"
      "# start_time: 1554861840\n"
      "# nprocs: 32\n"
      "# run time: 120.5\n"
      "\n";
  seeds.push_back(
      header +
      "MPI-IO\t-1\t42\tMPIIO_COLL_OPENS\t64\t/data\t/scr\tlustre\n"
      "MPI-IO\t-1\t42\tMPIIO_INDEP_OPENS\t4\t/data\t/scr\tlustre\n"
      "MPI-IO\t-1\t42\tMPIIO_BYTES_WRITTEN\t1000000\t/data\t/scr\tlustre\n"
      "MPI-IO\t-1\t42\tMPIIO_COLL_WRITES\t64\t/data\t/scr\tlustre\n"
      "MPI-IO\t-1\t42\tMPIIO_F_OPEN_START_TIMESTAMP\t1\t/data\t/scr\tl\n"
      "MPI-IO\t-1\t42\tMPIIO_F_WRITE_END_TIMESTAMP\t89\t/data\t/scr\tl\n"
      "POSIX\t-1\t42\tPOSIX_OPENS\t64\t/data\t/scr\tlustre\n"
      "POSIX\t-1\t42\tPOSIX_BYTES_WRITTEN\t1000000\t/data\t/scr\tlustre\n"
      "POSIX\t3\t42\tPOSIX_WRITES\t640\t/data\t/scr\tlustre\n"
      "LUSTRE\t-1\t42\tLUSTRE_OSTS\t4\t/data\t/scr\tlustre\n"
      "LUSTRE\t-1\t42\tLUSTRE_STRIPE_SIZE\t1048576\t/data\t/scr\tlustre\n");
  seeds.push_back(
      header +
      "STDIO\t0\t7\tSTDIO_OPENS\t1\t<STDOUT>\t/\tNA\n"
      "STDIO\t0\t7\tSTDIO_WRITES\t200\t<STDOUT>\t/\tNA\n"
      "STDIO\t0\t7\tSTDIO_BYTES_WRITTEN\t4096\t<STDOUT>\t/\tNA\n"
      "STDIO\t0\t7\tSTDIO_F_OPEN_START_TIMESTAMP\t0\t<STDOUT>\t/\tNA\n"
      "STDIO\t0\t7\tSTDIO_F_CLOSE_END_TIMESTAMP\t49\t<STDOUT>\t/\tNA\n"
      "POSIX\t0\t7\tPOSIX_OPENS\t1\t/log\t/scr\tlustre\n"
      "POSIX\t0\t7\tPOSIX_FDSYNCS\t0\t/log\t/scr\tlustre\n"
      "POSIX\t0\t7\tPOSIX_BYTES_READ\t2048\t/log\t/scr\tlustre\n"
      "POSIX\t0\t9\tPOSIX_READS\t2\t/log2\t/scr\tlustre\n"
      "POSIX\t1\t9\tPOSIX_F_READ_END_TIMESTAMP\t3.25\t/log2\t/scr\tlustre\n");
  return seeds;
}

/// Replaces one whitespace-separated field of a random line with `token`.
void replace_field(std::string& text, util::Rng& rng, std::string_view token) {
  const auto start = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(text.size()) - 1));
  const std::size_t line_begin = text.rfind('\n', start) + 1;  // npos + 1 == 0
  const std::size_t line_end = std::min(text.find('\n', line_begin), text.size());
  std::vector<std::pair<std::size_t, std::size_t>> fields;
  for (std::size_t i = line_begin; i < line_end;) {
    while (i < line_end && (text[i] == '\t' || text[i] == ' ')) ++i;
    const std::size_t field_begin = i;
    while (i < line_end && text[i] != '\t' && text[i] != ' ') ++i;
    if (i > field_begin) fields.emplace_back(field_begin, i - field_begin);
  }
  if (fields.empty()) return;
  const auto& [at, length] = fields[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(fields.size()) - 1))];
  text.replace(at, length, token);
}

/// Replaces the value of a random `# key: value` header line with `token`.
void replace_header_value(std::string& text, util::Rng& rng,
                          std::string_view token) {
  std::vector<std::pair<std::size_t, std::size_t>> values;
  for (std::size_t begin = 0; begin < text.size();) {
    const std::size_t end = std::min(text.find('\n', begin), text.size());
    const std::size_t colon = text.find(':', begin);
    if (text[begin] == '#' && colon < end) {
      values.emplace_back(colon + 1, end - colon - 1);
    }
    begin = end + 1;
  }
  if (values.empty()) return;
  const auto& [at, length] = values[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(values.size()) - 1))];
  text.replace(at, length, " " + std::string(token));
}

void mutate_darshan_text(std::string& text, util::Rng& rng) {
  static constexpr std::string_view kTokens[] = {
      "MPI-IO", "nan", "inf", "1e999", "18446744073709551616", "4294967296"};
  static constexpr char kSpaces[] = {'\r', '\f', '\v', '\t'};
  if (text.empty()) return;
  const auto pick = [&] {
    return static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(text.size()) - 1));
  };
  switch (rng.uniform_int(0, 7)) {
    case 0:  // bit flip
      text[pick()] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
      break;
    case 1:  // truncation
      text.resize(pick());
      break;
    case 2:  // deleted bytes
      text.erase(pick(), static_cast<std::size_t>(rng.uniform_int(1, 8)));
      break;
    case 3: {  // duplicated line
      const std::size_t at = pick();
      const std::size_t begin = text.rfind('\n', at) + 1;  // npos + 1 == 0
      const std::size_t end = std::min(text.find('\n', at), text.size() - 1);
      text.insert(begin, text.substr(begin, end - begin + 1));
      break;
    }
    case 4: {  // digit swap
      const std::size_t at = text.find_first_of("0123456789", pick());
      if (at != std::string::npos) {
        text[at] = static_cast<char>('0' + rng.uniform_int(0, 9));
      }
      break;
    }
    case 5:  // inserted whitespace other than ' ' and '\n'
      text.insert(pick(), 1, kSpaces[rng.uniform_int(0, 3)]);
      break;
    case 6:
      replace_header_value(text, rng, kTokens[rng.uniform_int(0, 5)]);
      break;
    default:
      replace_field(text, rng, kTokens[rng.uniform_int(0, 5)]);
      break;
  }
}

TEST(FuzzDarshanText, MutatedDocumentsMatchTheOracle) {
  const std::vector<std::string> seeds = darshan_text_seeds();
  for (const std::string& seed : seeds) {
    ASSERT_TRUE(same_parse_as_oracle(seed));
  }
  util::Rng rng(2208);
  for (int trial = 0; trial < 20000; ++trial) {
    std::string text = seeds[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(seeds.size()) - 1))];
    const int mutations = static_cast<int>(rng.uniform_int(1, 4));
    for (int m = 0; m < mutations; ++m) mutate_darshan_text(text, rng);
    ASSERT_TRUE(same_parse_as_oracle(text)) << "trial " << trial;
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

// --- MDP1 frames -------------------------------------------------------------

/// Bytes of the MDP1 frame header, and where its fields sit in it.
constexpr std::size_t kFrameHeaderBytes = 20;
constexpr std::size_t kVersionAt = 4;
constexpr std::size_t kTypeAt = 5;
constexpr std::size_t kLengthAt = 8;

/// A connected socketpair as two util::Connection ends.
struct SocketPair {
  util::Connection reader;
  util::Connection writer;

  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    reader = util::Connection(fds[0]);
    writer = util::Connection(fds[1]);
  }
};

/// The bytes write_frame puts on the wire.
std::string frame_bytes(dist::FrameType type, std::string_view payload) {
  SocketPair pair;
  EXPECT_TRUE(dist::write_frame(pair.writer, type, payload).ok());
  pair.writer.close();
  std::string bytes;
  char buffer[4096];
  for (;;) {
    const auto got = pair.reader.recv_some(buffer, sizeof buffer, 1.0);
    if (!got.has_value() || *got == 0) break;
    bytes.append(buffer, *got);
  }
  return bytes;
}

/// Sends `bytes` and reads one frame from the other end. A closed writer
/// turns a short frame into end-of-stream; an open one into a stalled peer.
util::Expected<dist::Frame> read_sent_frame(const std::string& bytes,
                                            bool keep_writer_open) {
  SocketPair pair;
  EXPECT_TRUE(pair.writer.send_all(bytes.data(), bytes.size()).ok());
  if (!keep_writer_open) pair.writer.close();
  return dist::read_frame(pair.reader, keep_writer_open ? 0.01 : 1.0);
}

void store_u32_le(std::string& bytes, std::size_t at, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xFFu);
  }
}

TEST(FuzzFrames, MutatedFramesDecodeOrFailWithAWireCode) {
  const std::vector<std::string> pristine = {
      frame_bytes(dist::FrameType::kHello, dist::hello_payload()),
      frame_bytes(dist::FrameType::kSubmit, dist::submit_request_to_payload(
                                                {"a.mbt", "MBT1\x01\xff"})),
      frame_bytes(dist::FrameType::kShutdown, ""),
  };
  util::Rng rng(149);
  std::size_t decoded = 0;
  std::map<util::ErrorCode, std::size_t> failures;
  for (const std::string& frame : pristine) {
    ASSERT_GE(frame.size(), kFrameHeaderBytes);
    ASSERT_TRUE(read_sent_frame(frame, false).has_value());
    const auto payload_bytes =
        static_cast<std::uint32_t>(frame.size() - kFrameHeaderBytes);
    for (int trial = 0; trial < 300; ++trial) {
      std::string mutated = frame;
      bool stalled = false;
      switch (rng.uniform_int(0, 5)) {
        case 0:  // torn: the peer died or stalled mid-frame
          mutated.resize(static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(frame.size()) - 1)));
          stalled = rng.chance(0.25);
          break;
        case 1:  // bit flips anywhere
          for (int f = static_cast<int>(rng.uniform_int(1, 4)); f > 0; --f) {
            const auto at = static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(mutated.size()) - 1));
            mutated[at] = static_cast<char>(
                mutated[at] ^ (1 << rng.uniform_int(0, 7)));
          }
          break;
        case 2:  // magic
          mutated[static_cast<std::size_t>(rng.uniform_int(0, 3))] =
              static_cast<char>(rng.uniform_int(0, 255));
          break;
        case 3:  // version
          mutated[kVersionAt] = static_cast<char>(rng.uniform_int(0, 255));
          break;
        case 4:  // type
          mutated[kTypeAt] = static_cast<char>(rng.uniform_int(0, 255));
          break;
        default:  // length: shorter, longer than sent, or past the cap
          store_u32_le(
              mutated, kLengthAt,
              rng.chance(0.7)
                  ? static_cast<std::uint32_t>(
                        rng.uniform_int(0, 2 * payload_bytes + 64))
                  : dist::kMaxPayloadBytes + 1 +
                        static_cast<std::uint32_t>(rng.uniform_int(
                            0, 0xFFFFFFFFu - dist::kMaxPayloadBytes - 1)));
          break;
      }
      const auto result = read_sent_frame(mutated, stalled);
      if (result.has_value()) {
        ++decoded;
        EXPECT_TRUE(dist::frame_type_valid(
            static_cast<std::uint8_t>(result->type)));
        EXPECT_LE(result->payload.size(), dist::kMaxPayloadBytes);
        continue;
      }
      ++failures[result.error().code];
    }
  }
  // Only mutations the checksum does not cover (the reserved bytes, a
  // magic or type byte rewritten to itself) may still decode.
  EXPECT_LT(decoded, 900u / 10);
  // Every failure is one of the three wire codes, and each one occurs.
  EXPECT_EQ(failures.size(), 3u);
  EXPECT_GT(failures[util::ErrorCode::kParseError], 0u);
  EXPECT_GT(failures[util::ErrorCode::kIoError], 0u);
  EXPECT_GT(failures[util::ErrorCode::kTimeout], 0u);
}

// --- HTTP request line -------------------------------------------------------

TEST(FuzzHttp, MutatedRequestHeadsFillMethodAndTargetFromTheFirstLineOnly) {
  static constexpr char kBytes[] = " \r\n?/:GEThttp";
  const std::string pristine =
      "GET /metrics?format=prom HTTP/1.1\r\nHost: localhost:9100\r\n"
      "User-Agent: fuzz /other HTTP/1.0\r\n\r\n";
  const std::size_t first_crlf = pristine.find("\r\n");
  util::Rng rng(151);
  for (int trial = 0; trial < 2000; ++trial) {
    // Every fourth trial leaves the request line alone and mutates only the
    // header lines below it, which must not change the parse.
    const bool headers_only = trial % 4 == 0;
    const std::size_t from = headers_only ? first_crlf + 2 : 0;
    std::string head = pristine;
    for (int f = static_cast<int>(rng.uniform_int(1, 4)); f > 0; --f) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(from),
          static_cast<std::int64_t>(head.size()) - 1));
      head[at] = rng.chance(0.5)
                     ? kBytes[rng.uniform_int(0, sizeof kBytes - 2)]
                     : static_cast<char>(rng.uniform_int(1, 255));
    }
    if (!headers_only && rng.chance(0.3)) {
      head.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(head.size()))));
    }

    obs::HttpRequest request;
    request.method = "untouched";
    request.target = "untouched";
    if (!obs::parse_request_line(head, request)) {
      EXPECT_FALSE(headers_only) << head;
      EXPECT_EQ(request.method, "untouched");
      EXPECT_EQ(request.target, "untouched");
      continue;
    }
    if (headers_only) {
      EXPECT_EQ(request.method, "GET");
      EXPECT_EQ(request.target, "/metrics");
    }
    const std::string_view first_line =
        std::string_view(head).substr(0, head.find("\r\n"));
    EXPECT_FALSE(request.method.empty());
    EXPECT_EQ(request.method.find(' '), std::string::npos);
    EXPECT_EQ(request.target.find(' '), std::string::npos);
    EXPECT_EQ(request.target.find('?'), std::string::npos);
    EXPECT_TRUE(first_line.starts_with(request.method + " " + request.target))
        << head;
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
