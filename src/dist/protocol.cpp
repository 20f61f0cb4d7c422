#include "dist/protocol.hpp"

#include <cstring>

#include "darshan/binary_format.hpp"
#include "json/json.hpp"
#include "json/reader.hpp"
#include "obs/span.hpp"

namespace mosaic::dist {

using json::Array;
using json::Object;
using json::Value;
using util::Error;
using util::ErrorCode;
using util::Expected;
using util::Status;

namespace {

constexpr std::size_t kHeaderBytes = 4 + 1 + 1 + 2 + 4 + 8;

/// The hello tag. v3 partials record their shard's inputs, which v2 peers
/// neither send nor check, and v2 tasks carried no thresholds, so an older
/// peer is turned away at the handshake.
constexpr std::string_view kHelloProtocol = "mosaic-dispatch-v3";

void store_u32(unsigned char* out, std::uint32_t value) noexcept {
  out[0] = static_cast<unsigned char>(value & 0xFF);
  out[1] = static_cast<unsigned char>((value >> 8) & 0xFF);
  out[2] = static_cast<unsigned char>((value >> 16) & 0xFF);
  out[3] = static_cast<unsigned char>((value >> 24) & 0xFF);
}

void store_u64(unsigned char* out, std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<unsigned char>((value >> (8 * i)) & 0xFF);
  }
}

std::uint32_t load_u32(const unsigned char* in) noexcept {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::uint64_t load_u64(const unsigned char* in) noexcept {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return value;
}

std::uint64_t payload_checksum(std::string_view payload) noexcept {
  return darshan::fnv1a(payload);
}

Error proto_error(std::string what) {
  return Error{ErrorCode::kParseError, "protocol: " + std::move(what)};
}

}  // namespace

bool frame_type_valid(std::uint8_t value) noexcept {
  return value >= static_cast<std::uint8_t>(FrameType::kHello) &&
         value <= static_cast<std::uint8_t>(FrameType::kSubmitResult);
}

Status write_frame(Connection& conn, FrameType type, std::string_view payload,
                   bool corrupt_payload_byte) {
  if (payload.size() > kMaxPayloadBytes) {
    return proto_error("payload of " + std::to_string(payload.size()) +
                       " bytes exceeds the frame cap");
  }
  unsigned char header[kHeaderBytes];
  store_u32(header, kProtocolMagic);
  header[4] = kProtocolVersion;
  header[5] = static_cast<std::uint8_t>(type);
  header[6] = 0;
  header[7] = 0;
  store_u32(header + 8, static_cast<std::uint32_t>(payload.size()));
  store_u64(header + 12, payload_checksum(payload));
  if (const auto status = conn.send_all(header, sizeof header); !status.ok()) {
    return status;
  }
  if (payload.empty()) return Status::success();
  if (!corrupt_payload_byte) {
    return conn.send_all(payload.data(), payload.size());
  }
  // Fault-injection seam: checksum above covered the true payload; flipping
  // one byte now guarantees the receiver detects the corruption.
  std::string corrupted(payload);
  corrupted[corrupted.size() / 2] =
      static_cast<char>(corrupted[corrupted.size() / 2] ^ 0x20);
  return conn.send_all(corrupted.data(), corrupted.size());
}

Expected<Frame> read_frame(Connection& conn, double timeout_seconds) {
  unsigned char header[kHeaderBytes];
  if (const auto status = conn.recv_exact(header, sizeof header,
                                          timeout_seconds);
      !status.ok()) {
    return status.error();
  }
  if (load_u32(header) != kProtocolMagic) {
    return proto_error("bad magic (not a mosaic dispatch stream)");
  }
  if (header[4] != kProtocolVersion) {
    return proto_error("unsupported protocol version " +
                       std::to_string(header[4]));
  }
  if (!frame_type_valid(header[5])) {
    return proto_error("unknown frame type " + std::to_string(header[5]));
  }
  const std::uint32_t length = load_u32(header + 8);
  if (length > kMaxPayloadBytes) {
    return proto_error("frame advertises " + std::to_string(length) +
                       " payload bytes (cap " +
                       std::to_string(kMaxPayloadBytes) + ")");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(header[5]);
  frame.payload.resize(length);
  if (length > 0) {
    if (const auto status =
            conn.recv_exact(frame.payload.data(), length, timeout_seconds);
        !status.ok()) {
      return status.error();
    }
  }
  // Checksum last: the payload has been consumed either way, so a mismatch
  // leaves the stream framed and the caller free to re-request.
  if (payload_checksum(frame.payload) != load_u64(header + 12)) {
    return proto_error("payload checksum mismatch (corrupt frame)");
  }
  return frame;
}

std::string task_request_to_payload(const TaskRequest& task) {
  Object out;
  Object shard;
  shard.set("index", task.shard.index);
  shard.set("count", task.shard.count);
  out.set("shard", std::move(shard));
  out.set("attempt", task.attempt);
  Array paths;
  paths.reserve(task.paths.size());
  for (const std::string& path : task.paths) paths.push_back(path);
  out.set("paths", std::move(paths));
  out.set("max_retries", task.max_retries);
  out.set("file_deadline_seconds", task.file_deadline_seconds);
  // Optional telemetry opt-ins: omitted when off, so payloads sent to (and
  // parsed by) pre-federation peers are unchanged byte for byte.
  if (task.telemetry) out.set("telemetry", true);
  if (task.collect_spans) out.set("collect_spans", true);
  return json::serialize(Value(std::move(out)));
}

Expected<TaskRequest> task_request_from_payload(std::string_view payload) {
  auto parsed = json::parse(payload);
  if (!parsed.has_value()) {
    return proto_error("task payload: " + parsed.error().message);
  }
  const json::Reader r(*parsed, "protocol: task payload");
  TaskRequest task;
  const json::Reader shard = r.object("shard");
  task.shard.index = shard.integer<std::size_t>("index");
  task.shard.count = shard.integer<std::size_t>("count");
  if (task.shard.index >= task.shard.count) {
    shard.fail("index", "is out of range for 'count'");
  }
  task.attempt = r.integer<std::size_t>("attempt");
  task.paths = r.array("paths").elements<std::string>();
  task.max_retries = r.integer<int>("max_retries");
  task.file_deadline_seconds = r.number("file_deadline_seconds");
  task.telemetry = r.boolean("telemetry", false);
  task.collect_spans = r.boolean("collect_spans", false);
  return r.finish(std::move(task));
}

std::string task_error_to_payload(const Error& error) {
  Object out;
  out.set("code", std::string(util::error_code_name(error.code)));
  out.set("message", error.message);
  return json::serialize(Value(std::move(out)));
}

Error task_error_from_payload(std::string_view payload) {
  auto parsed = json::parse(payload);
  if (!parsed.has_value()) {
    return Error{ErrorCode::kParseError,
                 "task-error payload is not JSON: " + parsed.error().message};
  }
  const json::Reader r(*parsed, "protocol: task-error payload");
  Error error{ErrorCode::kInternal, std::string(r.string("message"))};
  const std::string_view code = r.string("code");
  if (!r.ok()) return r.error();
  // An unknown code (a newer peer) still carries its message.
  error.code = util::error_code_from_name(code).value_or(ErrorCode::kInternal);
  return error;
}

std::string hello_payload() {
  Object out;
  out.set("protocol", std::string(kHelloProtocol));
  // Span clock at send time; check_hello_payload ignores it, so peers that
  // predate telemetry federation interoperate unchanged.
  out.set("now_ns", obs::SpanTracer::now_ns());
  return json::serialize(Value(std::move(out)));
}

Status check_hello_payload(std::string_view payload) {
  auto parsed = json::parse(payload);
  if (!parsed.has_value()) return proto_error("hello payload is not JSON");
  const json::Reader r(*parsed, "protocol: hello payload");
  // A failed read leaves "" here, and fail() keeps the first error.
  if (const std::string_view protocol = r.string("protocol");
      protocol != kHelloProtocol) {
    r.fail("protocol", "is '" + std::string(protocol) +
                           "': the peer speaks a different protocol");
  }
  if (!r.ok()) return r.error();
  return Status::success();
}

std::optional<std::uint64_t> hello_now_ns(std::string_view payload) {
  auto parsed = json::parse(payload);
  if (!parsed.has_value()) return std::nullopt;
  const json::Reader r(*parsed, "protocol: hello payload");
  const auto now = r.integer<std::uint64_t>("now_ns");
  if (!r.ok()) return std::nullopt;
  return now;
}

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

std::string to_hex(std::string_view bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    out += kHexDigits[byte >> 4];
    out += kHexDigits[byte & 0x0F];
  }
  return out;
}

int hex_value(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

Expected<std::string> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return proto_error("submit payload: odd-length hex data");
  }
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_value(hex[i]);
    const int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return proto_error("submit payload: non-hex byte in data");
    }
    out += static_cast<char>((hi << 4) | lo);
  }
  return out;
}

}  // namespace

std::string submit_request_to_payload(const SubmitRequest& request) {
  Object out;
  out.set("name", request.name);
  out.set("hex", to_hex(request.data));
  return json::serialize(Value(std::move(out)));
}

Expected<SubmitRequest> submit_request_from_payload(std::string_view payload) {
  auto parsed = json::parse(payload);
  if (!parsed.has_value()) return proto_error("submit payload is not JSON");
  const json::Reader r(*parsed, "protocol: submit payload");
  SubmitRequest request;
  request.name = r.string("name");
  const std::string_view hex = r.string("hex");
  if (!r.ok()) return r.error();
  auto data = from_hex(hex);
  if (!data.has_value()) return std::move(data).error();
  request.data = std::move(*data);
  return request;
}

std::string submit_reply_to_payload(const SubmitReply& reply) {
  Object out;
  out.set("ok", reply.ok);
  if (reply.ok) {
    out.set("trace_id", reply.trace_id);
    out.set("app_key", reply.app_key);
    out.set("cached", reply.cached);
    Array categories;
    for (const std::string& category : reply.categories) {
      categories.push_back(category);
    }
    out.set("categories", std::move(categories));
  } else {
    out.set("error", reply.error);
  }
  return json::serialize(Value(std::move(out)));
}

Expected<SubmitReply> submit_reply_from_payload(std::string_view payload) {
  auto parsed = json::parse(payload);
  if (!parsed.has_value()) return proto_error("submit reply is not JSON");
  const json::Reader r(*parsed, "protocol: submit reply");
  SubmitReply reply;
  reply.ok = r.boolean("ok");
  if (!reply.ok) {
    reply.error = r.string("error");
    return r.finish(std::move(reply));
  }
  reply.trace_id = r.string("trace_id");
  reply.app_key = r.string("app_key");
  reply.cached = r.boolean("cached");
  reply.categories = r.array("categories").elements<std::string>();
  return r.finish(std::move(reply));
}

}  // namespace mosaic::dist
