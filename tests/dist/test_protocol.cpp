// Wire-level tests of the dispatch protocol (dist/protocol.hpp) over real
// loopback sockets: framing round-trips, the error taxonomy the task
// lifecycle classifies on (truncated frame -> kIoError, corrupt frame ->
// kParseError with the stream still framed, silence -> kTimeout), address
// validation, and deterministic network fault specs.
#include "dist/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "dist/faults.hpp"
#include "dist/net.hpp"
#include "util/error.hpp"

namespace mosaic::dist {
namespace {

using util::ErrorCode;

/// A listener + connected socket pair on an ephemeral loopback port.
struct Loopback {
  Listener listener;
  Connection server;
  Connection client;

  Loopback() {
    EXPECT_TRUE(listener.listen_on(Address{"127.0.0.1", 0}).ok());
    auto connected =
        connect_to(Address{"127.0.0.1", listener.port()}, 5.0);
    EXPECT_TRUE(connected.has_value());
    client = std::move(*connected);
    auto accepted = listener.accept_connection(5.0);
    EXPECT_TRUE(accepted.has_value());
    server = std::move(*accepted);
  }
};

TEST(Protocol, FramesRoundTrip) {
  Loopback loop;
  const std::string payload = "{\"hello\":\"world\"}";
  ASSERT_TRUE(write_frame(loop.client, FrameType::kTask, payload).ok());
  ASSERT_TRUE(write_frame(loop.client, FrameType::kHeartbeat, "").ok());

  auto first = read_frame(loop.server, 5.0);
  ASSERT_TRUE(first.has_value()) << first.error().to_string();
  EXPECT_EQ(first->type, FrameType::kTask);
  EXPECT_EQ(first->payload, payload);

  auto second = read_frame(loop.server, 5.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, FrameType::kHeartbeat);
  EXPECT_TRUE(second->payload.empty());
}

TEST(Protocol, SilentPeerIsTimeout) {
  Loopback loop;
  auto frame = read_frame(loop.server, 0.1);
  ASSERT_FALSE(frame.has_value());
  EXPECT_EQ(frame.error().code, ErrorCode::kTimeout);
}

// Regression for the partial-receipt hardening: a peer that dies mid-send
// leaves a truncated frame, which must classify as kIoError (worker death,
// reassign) — never hang and never be mistaken for wire corruption.
TEST(Protocol, TruncatedFrameIsIoError) {
  Loopback loop;
  // Hand-build a header (layout documented in protocol.hpp) advertising a
  // 64-byte payload, send only 10 bytes, then close.
  unsigned char header[20] = {0};
  const std::uint32_t magic = kProtocolMagic;
  std::memcpy(header, &magic, 4);
  header[4] = kProtocolVersion;
  header[5] = static_cast<unsigned char>(FrameType::kPartial);
  const std::uint32_t len = 64;
  std::memcpy(header + 8, &len, 4);
  ASSERT_TRUE(loop.client.send_all(header, sizeof(header)).ok());
  ASSERT_TRUE(loop.client.send_all("0123456789", 10).ok());
  loop.client.close();

  auto frame = read_frame(loop.server, 5.0);
  ASSERT_FALSE(frame.has_value());
  EXPECT_EQ(frame.error().code, ErrorCode::kIoError);
}

// A checksum-mismatched frame is kParseError AND leaves the stream framed:
// the very next frame must read cleanly. This is what makes wire corruption
// retryable (re-request) instead of connection-fatal.
TEST(Protocol, CorruptFrameIsParseErrorAndStreamStaysFramed) {
  Loopback loop;
  ASSERT_TRUE(write_frame(loop.client, FrameType::kPartial, "not-the-sum",
                          /*corrupt_payload_byte=*/true)
                  .ok());
  ASSERT_TRUE(write_frame(loop.client, FrameType::kShutdown, "clean").ok());

  auto corrupt = read_frame(loop.server, 5.0);
  ASSERT_FALSE(corrupt.has_value());
  EXPECT_EQ(corrupt.error().code, ErrorCode::kParseError);

  auto clean = read_frame(loop.server, 5.0);
  ASSERT_TRUE(clean.has_value()) << clean.error().to_string();
  EXPECT_EQ(clean->type, FrameType::kShutdown);
  EXPECT_EQ(clean->payload, "clean");
}

TEST(Protocol, TaskRequestRoundTrips) {
  TaskRequest task;
  task.shard = ingest::ShardSpec{2, 8};
  task.attempt = 3;
  task.paths = {"/corpus/a.mbt", "/corpus/b.mbt"};
  task.max_retries = 5;
  task.file_deadline_seconds = 12.5;
  auto decoded = task_request_from_payload(task_request_to_payload(task));
  ASSERT_TRUE(decoded.has_value()) << decoded.error().to_string();
  EXPECT_EQ(decoded->shard, task.shard);
  EXPECT_EQ(decoded->attempt, 3U);
  EXPECT_EQ(decoded->paths, task.paths);
  EXPECT_EQ(decoded->max_retries, 5);
  EXPECT_DOUBLE_EQ(decoded->file_deadline_seconds, 12.5);
}

TEST(Protocol, TaskErrorRoundTripsAndDecodeNeverFails) {
  const util::Error original{ErrorCode::kTimeout, "file deadline blown"};
  const util::Error decoded =
      task_error_from_payload(task_error_to_payload(original));
  EXPECT_EQ(decoded.code, ErrorCode::kTimeout);
  EXPECT_EQ(decoded.message, "file deadline blown");

  const util::Error garbage = task_error_from_payload("not json at all");
  EXPECT_EQ(garbage.code, ErrorCode::kParseError);
}

TEST(Protocol, HelloHandshakeValidates) {
  EXPECT_TRUE(check_hello_payload(hello_payload()).ok());
  EXPECT_FALSE(check_hello_payload("{}").ok());
  EXPECT_FALSE(
      check_hello_payload("{\"protocol\":\"mosaic-dispatch-v0\"}").ok());
}

TEST(Addresses, ParseValidatesActionably) {
  auto ok = parse_address("10.0.0.1:9100");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->host, "10.0.0.1");
  EXPECT_EQ(ok->port, 9100);

  EXPECT_FALSE(parse_address("no-port").has_value());
  EXPECT_FALSE(parse_address(":9100").has_value());
  EXPECT_FALSE(parse_address("host:").has_value());
  EXPECT_FALSE(parse_address("host:99999").has_value());
  EXPECT_FALSE(parse_address("host:nan").has_value());

  auto list = parse_address_list("a:1,b:2");
  ASSERT_TRUE(list.has_value());
  EXPECT_EQ(list->size(), 2U);
  // Port 0 is only meaningful for listeners, never as a connect target.
  EXPECT_FALSE(parse_address_list("a:1,b:0").has_value());
  EXPECT_FALSE(parse_address_list("").has_value());
}

TEST(NetFaults, ParseAndDeterminism) {
  auto spec = NetFaultSpec::parse(
      "seed=7,close=0.5,corrupt=1.0,corrupt_failures=2,stall=0.25,"
      "stall_ms=40,kill_after=3");
  ASSERT_TRUE(spec.has_value()) << spec.error().to_string();
  EXPECT_EQ(spec->seed, 7U);
  EXPECT_DOUBLE_EQ(spec->close_probability, 0.5);
  EXPECT_EQ(spec->corrupt_failures, 2);
  EXPECT_EQ(spec->kill_after_tasks, 3U);

  // Decisions are pure functions of (seed, shard, attempt).
  for (std::size_t shard = 0; shard < 16; ++shard) {
    EXPECT_EQ(spec->should_close(shard, 0), spec->should_close(shard, 0));
    EXPECT_EQ(spec->should_stall(shard, 1), spec->should_stall(shard, 1));
  }
  // corrupt=1.0 hits every task but heals after corrupt_failures attempts,
  // modeling a transient rather than permanent fault.
  EXPECT_TRUE(spec->should_corrupt(3, 0));
  EXPECT_TRUE(spec->should_corrupt(3, 1));
  EXPECT_FALSE(spec->should_corrupt(3, 2));

  EXPECT_FALSE(NetFaultSpec::parse("close=2.0").has_value());
  EXPECT_FALSE(NetFaultSpec::parse("bogus=1").has_value());
}

}  // namespace
}  // namespace mosaic::dist
