// Wire protocol of the dispatch/worker pair: length-prefixed, checksummed
// frames carrying JSON payloads.
//
// Layout of one frame (all integers little-endian):
//   u32  magic     0x4D445031 ("MDP1")
//   u8   version   kProtocolVersion
//   u8   type      FrameType
//   u16  reserved  0
//   u32  payload length (bounded by kMaxPayloadBytes)
//   u64  FNV-1a of the payload bytes
//   ...  payload
//
// The checksum is what turns "a bit flipped somewhere on the wire" into a
// *detected, retryable* failure: read_frame consumes the advertised payload
// even when the checksum mismatches, so the stream stays framed and the
// manager can simply re-request the task instead of tearing the connection
// down. A truncated frame (peer died mid-send) surfaces as kIoError; a
// silent peer as kTimeout. The three codes are exactly the retry taxonomy
// the dispatch lifecycle classifies on.
//
// Payloads are JSON (the partial artifact is already the canonical shard
// wire format, and task descriptions are small), so every message is
// inspectable with a pcap and a pretty-printer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dist/net.hpp"
#include "ingest/ingest.hpp"
#include "util/error.hpp"

namespace mosaic::dist {

inline constexpr std::uint32_t kProtocolMagic = 0x4D445031;  // "MDP1"
inline constexpr std::uint8_t kProtocolVersion = 1;

/// Hard cap on a frame payload; a corrupted length field must not make the
/// receiver try to allocate terabytes.
inline constexpr std::uint32_t kMaxPayloadBytes = 256u * 1024u * 1024u;

enum class FrameType : std::uint8_t {
  kHello = 1,        ///< both directions: version handshake
  kTask = 2,         ///< manager -> worker: run this shard task
  kHeartbeat = 3,    ///< worker -> manager: still alive, task in progress
  kPartial = 4,      ///< worker -> manager: the finished partial artifact
  kTaskError = 5,    ///< worker -> manager: task failed (code + message)
  kShutdown = 6,     ///< manager -> worker: session over, stop serving it
  kSubmit = 7,       ///< client -> daemon: categorize this trace file
  kSubmitResult = 8, ///< daemon -> client: trace id, categories, cache state
};

/// True for values that decode to a known FrameType.
[[nodiscard]] bool frame_type_valid(std::uint8_t value) noexcept;

struct Frame {
  FrameType type = FrameType::kHello;
  std::string payload;
};

/// Sends one frame. `corrupt_payload_byte` is the fault-injection seam: the
/// checksum is computed over the true payload and one byte is flipped
/// afterwards, so the receiver sees a checksum mismatch (never used outside
/// tests/fault specs).
[[nodiscard]] util::Status write_frame(Connection& conn, FrameType type,
                                       std::string_view payload,
                                       bool corrupt_payload_byte = false);

/// Receives one frame. Error codes:
///   kTimeout    peer silent past `timeout_seconds`
///   kIoError    connection closed / reset (possibly mid-frame)
///   kParseError bad magic, unknown type/version, oversized length, or
///               checksum mismatch (stream stays framed; retryable)
[[nodiscard]] util::Expected<Frame> read_frame(Connection& conn,
                                               double timeout_seconds);

/// One shard task as shipped to a worker. The manager pre-filters the path
/// list to the files the shard owns (the worker's ingest re-applies the
/// ShardSpec filter, which is a no-op on an owned list), so wire size scales
/// with the shard, not the corpus.
struct TaskRequest {
  ingest::ShardSpec shard;
  /// Global attempt number for this shard (0-based). Deterministic fault
  /// injection keys on it so transient faults heal across retries.
  std::size_t attempt = 0;
  std::vector<std::string> paths;
  int max_retries = 3;                  ///< per-file ingest retries
  double file_deadline_seconds = 30.0;  ///< per-file ingest budget
  /// Telemetry federation opt-ins (obs/federation.hpp). Encoded as optional
  /// payload fields that old managers never send and old workers ignore, so
  /// a mixed-version fleet keeps dispatching — it just loses telemetry from
  /// the old half.
  bool telemetry = false;      ///< ship metric snapshots on heartbeats/partials
  bool collect_spans = false;  ///< record spans and ship them with the partial

  /// The shard and per-file knobs above as options for report::run_shard.
  [[nodiscard]] ingest::IngestOptions ingest_options() const {
    ingest::IngestOptions options;
    options.shard = shard;
    options.max_retries = max_retries;
    options.file_deadline_seconds = file_deadline_seconds;
    return options;
  }
};

[[nodiscard]] std::string task_request_to_payload(const TaskRequest& task);
[[nodiscard]] util::Expected<TaskRequest> task_request_from_payload(
    std::string_view payload);

/// Worker-side task failure, round-tripped through the kTaskError payload.
/// Decoding never fails: an undecodable payload decodes to a kParseError
/// describing the payload itself.
[[nodiscard]] std::string task_error_to_payload(const util::Error& error);
[[nodiscard]] util::Error task_error_from_payload(std::string_view payload);

/// Hello payload and its check. Besides the protocol tag
/// ("mosaic-dispatch-v3", the only field the check enforces: a v2 peer
/// writes partials without their inputs) the payload
/// carries `now_ns`, the sender's span clock at send time — the raw
/// material for the handshake clock-offset estimate that aligns worker
/// span timestamps onto the manager timeline (obs/federation.hpp).
[[nodiscard]] std::string hello_payload();
[[nodiscard]] util::Status check_hello_payload(std::string_view payload);

/// Extracts `now_ns` from a hello payload; nullopt when the peer predates
/// telemetry federation (its spans then stay unaligned, nothing breaks).
[[nodiscard]] std::optional<std::uint64_t> hello_now_ns(
    std::string_view payload);

/// One trace submitted to the daemon over a kSubmit frame: the client-side
/// file name (its extension picks the parser, exactly as on-disk ingest
/// classifies) and the raw file bytes. Bytes travel hex-encoded inside the
/// JSON payload so the frame stays pcap-inspectable like every other MDP1
/// message; traces are small enough that doubling them is cheaper than a
/// second wire format.
struct SubmitRequest {
  std::string name;
  std::string data;  ///< raw bytes (decoded)
};

[[nodiscard]] std::string submit_request_to_payload(
    const SubmitRequest& request);
[[nodiscard]] util::Expected<SubmitRequest> submit_request_from_payload(
    std::string_view payload);

/// The daemon's kSubmitResult payload. `ok == false` carries only `error`.
struct SubmitReply {
  bool ok = false;
  std::string trace_id;  ///< decimal job id — the /explain/<id> handle
  std::string app_key;
  bool cached = false;   ///< true when the submission was a cache hit
  std::vector<std::string> categories;
  std::string error;
};

[[nodiscard]] std::string submit_reply_to_payload(const SubmitReply& reply);
[[nodiscard]] util::Expected<SubmitReply> submit_reply_from_payload(
    std::string_view payload);

}  // namespace mosaic::dist
