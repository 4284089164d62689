#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/context_agent.h"
#include "envs/lts_env.h"
#include "load/flaky_service.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/snapshot_codec.h"
#include "obs/trace.h"
#include "transport/http_endpoint.h"
#include "sadae/sadae.h"
#include "serve/inference_server.h"
#include "serve/serve_router.h"
#include "transport/policy_client.h"
#include "transport/policy_server.h"
#include "transport/socket.h"
#include "transport/wire.h"
#include "util/bytes.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace sim2rec {
namespace transport {
namespace {

bool BitwiseEqual(const nn::Tensor& a, const nn::Tensor& b) {
  if (!a.SameShape(b)) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<size_t>(a.size())) == 0;
}

/// Per-(user, step) deterministic observation, distinct across users
/// (mirrors tests/serve_test.cc so replay comparisons line up).
nn::Tensor ObsFor(int user, int step) {
  nn::Tensor obs(1, envs::kLtsObsDim);
  for (int c = 0; c < envs::kLtsObsDim; ++c) {
    obs(0, c) = 0.1 * (user + 1) + 0.01 * (step + 1) + 0.001 * c;
  }
  return obs;
}

core::ContextAgentConfig TinySim2RecConfig() {
  core::ContextAgentConfig config;
  config.obs_dim = envs::kLtsObsDim;
  config.action_dim = 1;
  config.use_extractor = true;
  config.lstm_hidden = 8;
  config.f_hidden = {8};
  config.f_out = 4;
  config.policy_hidden = {16};
  config.value_hidden = {16};
  return config;
}

sadae::SadaeConfig TinySadaeConfig() {
  sadae::SadaeConfig config;
  config.state_dim = envs::kLtsObsDim;
  config.latent_dim = 3;
  config.encoder_hidden = {16};
  config.decoder_hidden = {16};
  return config;
}

/// Protocol-test service: echoes the observation back as the action
/// (with awkward bit patterns preserved), reports the user id in
/// `value`, and records EndSession calls.
class FakeEchoService : public serve::PolicyService {
 public:
  serve::ServeReply Act(uint64_t user_id, const nn::Tensor& obs) override {
    acts_.fetch_add(1, std::memory_order_relaxed);
    serve::ServeReply reply;
    reply.action = obs;
    reply.exec_clamped = (user_id % 2) == 1;
    reply.value = static_cast<double>(user_id) / 3.0;  // 0.1-style bits
    reply.batch_size = 1;
    return reply;
  }
  void EndSession(uint64_t user_id) override {
    std::lock_guard<std::mutex> lock(mutex_);
    ended_.push_back(user_id);
  }
  std::vector<uint64_t> ended() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ended_;
  }
  int64_t acts() const { return acts_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mutex_;
  std::vector<uint64_t> ended_;
  std::atomic<int64_t> acts_{0};
};

PolicyClientConfig ClientFor(const PolicyServer& server) {
  PolicyClientConfig config;
  config.port = server.port();
  config.max_retries = 1;
  config.retry_backoff_initial_ms = 1;
  config.retry_backoff_max_ms = 2;
  return config;
}

/// Reads one whole frame off a raw connection (test-side peer); the
/// request id is surfaced via header->request_id.
bool ReadFrame(TcpConnection& conn, FrameHeader* header,
               std::string* payload, int timeout_ms = 2000) {
  uint8_t bytes[kFrameHeaderBytes];
  if (conn.ReadFull(bytes, kFrameHeaderBytes, timeout_ms) != IoStatus::kOk) {
    return false;
  }
  if (DecodeHeader(bytes, kDefaultMaxFrameBytes, header) !=
      HeaderStatus::kOk) {
    return false;
  }
  DecodeRequestId(bytes + kFramePrefixBytes, header);
  payload->assign(header->payload_len, '\0');
  if (header->payload_len > 0 &&
      conn.ReadFull(payload->data(), payload->size(), timeout_ms) !=
          IoStatus::kOk) {
    return false;
  }
  return FrameCrcMatches(bytes, *payload);
}

bool WriteAll(TcpConnection& conn, const std::string& bytes) {
  return conn.WriteFull(bytes.data(), bytes.size(), 2000) == IoStatus::kOk;
}

/// One Act request as a raw test server saw it on the wire.
struct RawAct {
  uint64_t request_id = 0;
  uint64_t user_id = 0;
};

bool ReadActRequest(TcpConnection& conn, RawAct* out) {
  FrameHeader header;
  std::string payload;
  if (!ReadFrame(conn, &header, &payload)) return false;
  if (header.type != MessageType::kActRequest) return false;
  uint64_t trace_id = 0;
  nn::Tensor obs;
  if (!DecodeActRequest(payload, &out->user_id, &trace_id, &obs)) {
    return false;
  }
  out->request_id = header.request_id;
  return true;
}

/// A reply frame whose action encodes the user id, so a test can tell
/// which submission a reply was routed to.
std::string ActReplyFrame(uint64_t user_id, uint64_t request_id) {
  serve::ServeReply reply;
  reply.action = nn::Tensor(1, 1);
  reply.action(0, 0) = static_cast<double>(user_id);
  reply.value = static_cast<double>(user_id) / 3.0;
  reply.batch_size = 1;
  return EncodeFrame(MessageType::kActReply, EncodeActReply(reply),
                     /*flags=*/0, request_id);
}

/// An empty-payload version-1 frame exactly as a v1 peer sent it: the
/// 16-byte header with no request id, CRC over header bytes [0, 12).
std::string BareV1Frame(MessageType type) {
  std::string frame = EncodeFrame(type, std::string()).substr(0, 12);
  frame[4] = 1;
  AppendU32(&frame, Crc32(frame.data(), frame.size()));
  return frame;
}

// ---------------------------------------------------------------------------
// Wire codecs: round trips and malformed-input rejection.
// ---------------------------------------------------------------------------

TEST(Wire, FrameRoundTrip) {
  const std::string payload = EncodeU64(42);
  // A 24-byte header carrying the request id, then the payload.
  const std::string frame = EncodeFrame(MessageType::kPingRequest, payload,
                                        /*flags=*/0,
                                        /*request_id=*/0x1122334455667788ULL);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  EXPECT_EQ(static_cast<uint8_t>(frame[4]), kProtocolVersion);
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(frame.data());
  FrameHeader header;
  ASSERT_EQ(DecodeHeader(bytes, kDefaultMaxFrameBytes, &header),
            HeaderStatus::kOk);
  EXPECT_EQ(header.type, MessageType::kPingRequest);
  EXPECT_EQ(header.payload_len, payload.size());
  DecodeRequestId(bytes + kFramePrefixBytes, &header);
  EXPECT_EQ(header.request_id, 0x1122334455667788ULL);
  EXPECT_TRUE(FrameCrcMatches(bytes, payload));
}

// The worked example in docs/PROTOCOL.md ("Worked example: one `Act`
// round trip"), copied byte for byte: the documented inputs must still
// encode to exactly these frames.
constexpr const char* kDocActRequestDump = R"dump(
00000000  53 32 52 54 03 01 00 00  30 00 00 00 e0 d2 78 2b  |S2RT....0.....x+|
00000010  03 00 00 00 00 00 00 00  2a 00 00 00 00 00 00 00  |........*.......|
00000020  07 00 00 00 00 00 00 00  01 00 00 00 03 00 00 00  |................|
00000030  00 00 00 00 00 00 e0 3f  00 00 00 00 00 00 f4 bf  |.......?........|
00000040  00 00 00 00 00 00 00 40                           |.......@|
)dump";

constexpr const char* kDocActReplyDump = R"dump(
00000000  53 32 52 54 03 02 00 00  1d 00 00 00 f3 f3 dd 28  |S2RT...........(|
00000010  03 00 00 00 00 00 00 00  01 00 00 00 01 00 00 00  |................|
00000020  00 00 00 00 00 00 e8 3f  00 00 00 00 00 00 00 29  |.......?.......)|
00000030  40 01 00 00 00                                    |@....|
)dump";

TEST(Wire, ActRoundTripMatchesProtocolDocHexDumps) {
  nn::Tensor obs(1, 3);
  obs(0, 0) = 0.5;
  obs(0, 1) = -1.25;
  obs(0, 2) = 2.0;
  const std::string request =
      EncodeFrame(MessageType::kActRequest,
                  EncodeActRequest(42, obs, /*trace_id=*/7), /*flags=*/0,
                  /*request_id=*/3);
  EXPECT_EQ("\n" + HexDump(request), kDocActRequestDump);

  serve::ServeReply reply;
  reply.action = nn::Tensor(1, 1);
  reply.action(0, 0) = 0.75;
  reply.exec_clamped = false;
  reply.value = 12.5;
  reply.batch_size = 1;
  const std::string reply_frame =
      EncodeFrame(MessageType::kActReply, EncodeActReply(reply),
                  /*flags=*/0, /*request_id=*/3);
  EXPECT_EQ("\n" + HexDump(reply_frame), kDocActReplyDump);
}

TEST(Wire, RequestIdIsCrcCovered) {
  const std::string payload = EncodeU64(1);
  std::string frame = EncodeFrame(MessageType::kActRequest, payload,
                                  /*flags=*/0, /*request_id=*/5);
  // Flip one bit inside the id field: the CRC must catch it, otherwise
  // a corrupted id would route a reply to the wrong caller.
  frame[kFramePrefixBytes + 3] ^= 0x04;
  EXPECT_FALSE(FrameCrcMatches(
      reinterpret_cast<const uint8_t*>(frame.data()), payload));
}

TEST(Wire, HeaderRejectsBadMagicAndOversizedLength) {
  std::string frame = EncodeFrame(MessageType::kPingRequest, EncodeU64(1));
  FrameHeader header;

  std::string bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_EQ(DecodeHeader(reinterpret_cast<const uint8_t*>(bad_magic.data()),
                         kDefaultMaxFrameBytes, &header),
            HeaderStatus::kBadMagic);

  // The bound counts the whole frame, header included: a frame of
  // exactly max_frame_bytes passes, one byte over is refused.
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(frame.data());
  EXPECT_EQ(DecodeHeader(bytes, frame.size(), &header), HeaderStatus::kOk);
  EXPECT_EQ(DecodeHeader(bytes, frame.size() - 1, &header),
            HeaderStatus::kTooLarge);
  EXPECT_EQ(DecodeHeader(bytes, kFrameHeaderBytes + 4, &header),
            HeaderStatus::kTooLarge);

  // Any version byte but 3 is refused before the length is looked at:
  // another version's length field need not mean what ours does.
  for (const uint8_t version : {0, 1, 2, 4, 255}) {
    std::string other = frame;
    other[4] = static_cast<char>(version);
    EXPECT_EQ(DecodeHeader(reinterpret_cast<const uint8_t*>(other.data()),
                           frame.size() - 1, &header),
              HeaderStatus::kUnsupportedVersion)
        << "version=" << static_cast<int>(version);
  }
}

TEST(Wire, CrcCatchesBitFlips) {
  const std::string payload = EncodeU64(7);
  std::string frame = EncodeFrame(MessageType::kPingRequest, payload);
  std::string flipped_payload = payload;
  flipped_payload[2] ^= 0x40;
  EXPECT_FALSE(FrameCrcMatches(
      reinterpret_cast<const uint8_t*>(frame.data()), flipped_payload));
  // A flipped header byte fails too.
  frame[5] ^= 0x01;  // type byte
  EXPECT_FALSE(FrameCrcMatches(
      reinterpret_cast<const uint8_t*>(frame.data()), payload));
}

TEST(Wire, UnknownTypeSurvivesHeaderDecode) {
  const std::string frame =
      EncodeFrame(static_cast<MessageType>(200), std::string());
  FrameHeader header;
  ASSERT_EQ(DecodeHeader(reinterpret_cast<const uint8_t*>(frame.data()),
                         kDefaultMaxFrameBytes, &header),
            HeaderStatus::kOk);
  EXPECT_EQ(static_cast<uint8_t>(header.type), 200);
}

TEST(Wire, ActRequestRoundTripIsBitwise) {
  nn::Tensor obs(1, 5);
  const double specials[] = {1.0 / 3.0, -0.0, 5e-324, 1e300, 0.1};
  for (int c = 0; c < 5; ++c) obs(0, c) = specials[c];

  const std::string payload =
      EncodeActRequest(0xDEADBEEFCAFEF00D, obs, /*trace_id=*/0x1234F00D);
  uint64_t user_id = 0;
  uint64_t trace_id = 0;
  nn::Tensor decoded;
  ASSERT_TRUE(DecodeActRequest(payload, &user_id, &trace_id, &decoded));
  EXPECT_EQ(user_id, 0xDEADBEEFCAFEF00D);
  EXPECT_EQ(trace_id, 0x1234F00Du);
  EXPECT_TRUE(BitwiseEqual(obs, decoded));
}

TEST(Wire, ActReplyRoundTripIsBitwise) {
  serve::ServeReply reply;
  reply.action = nn::Tensor(1, 3);
  reply.action(0, 0) = -2.0 / 7.0;
  reply.action(0, 1) = 0.1;
  reply.action(0, 2) = -0.0;
  reply.exec_clamped = true;
  reply.value = 1.0 / 3.0;
  reply.batch_size = 13;

  serve::ServeReply decoded;
  ASSERT_TRUE(DecodeActReply(EncodeActReply(reply), &decoded));
  EXPECT_TRUE(BitwiseEqual(reply.action, decoded.action));
  EXPECT_EQ(decoded.exec_clamped, true);
  uint64_t a, b;
  std::memcpy(&a, &reply.value, 8);
  std::memcpy(&b, &decoded.value, 8);
  EXPECT_EQ(a, b);
  EXPECT_EQ(decoded.batch_size, 13);
}

TEST(Wire, DecodersRejectTruncatedAndTrailingBytes) {
  nn::Tensor obs = ObsFor(1, 1);
  const std::string act = EncodeActRequest(7, obs);
  uint64_t user_id = 0;
  uint64_t trace_id = 0;
  nn::Tensor decoded;
  for (size_t cut = 0; cut < act.size(); ++cut) {
    EXPECT_FALSE(
        DecodeActRequest(act.substr(0, cut), &user_id, &trace_id, &decoded))
        << "cut=" << cut;
  }
  EXPECT_FALSE(DecodeActRequest(act + "x", &user_id, &trace_id, &decoded));

  serve::ServeReply reply;
  reply.action = obs;
  const std::string rep = EncodeActReply(reply);
  serve::ServeReply out;
  EXPECT_FALSE(DecodeActReply(rep.substr(0, rep.size() - 1), &out));
  EXPECT_FALSE(DecodeActReply(rep + "x", &out));

  uint64_t v = 0;
  EXPECT_FALSE(DecodeU64(std::string("abc"), &v));
  EXPECT_FALSE(DecodeU64(EncodeU64(1) + "x", &v));

  WireError code;
  std::string message;
  const std::string err = EncodeError(WireError::kBadPayload, "oops");
  ASSERT_TRUE(DecodeError(err, &code, &message));
  EXPECT_EQ(code, WireError::kBadPayload);
  EXPECT_EQ(message, "oops");
  EXPECT_FALSE(DecodeError(err.substr(0, err.size() - 2), &code, &message));
}

TEST(Wire, ActRequestRejectsAbsurdDimensions) {
  // Hand-build a payload whose tensor claims 2^31 rows: the decoder
  // must refuse before allocating, not die trying.
  std::string payload = EncodeActRequest(1, ObsFor(0, 0));
  // rows field, little-endian (after user id + trace id).
  const uint32_t huge = 0x80000000u;
  std::memcpy(payload.data() + 16, &huge, 4);
  uint64_t user_id = 0;
  uint64_t trace_id = 0;
  nn::Tensor decoded;
  EXPECT_FALSE(DecodeActRequest(payload, &user_id, &trace_id, &decoded));
}

// ---------------------------------------------------------------------------
// Client <-> server happy path over loopback.
// ---------------------------------------------------------------------------

TEST(Transport, ActEndSessionPingOverLoopback) {
  FakeEchoService service;
  PolicyServerConfig server_config;
  server_config.num_workers = 2;
  PolicyServer server(&service, server_config);
  ASSERT_TRUE(server.Start());

  PolicyClient client(ClientFor(server));

  uint8_t version = 0;
  ASSERT_EQ(client.Ping(&version), TransportStatus::kOk);
  EXPECT_EQ(version, kProtocolVersion);

  const nn::Tensor obs = ObsFor(3, 1);
  serve::ServeReply reply;
  ASSERT_EQ(client.TryAct(3, obs, &reply), TransportStatus::kOk);
  EXPECT_TRUE(BitwiseEqual(reply.action, obs));  // echo, bit-exact
  EXPECT_TRUE(reply.exec_clamped);               // user 3 is odd
  EXPECT_EQ(reply.batch_size, 1);

  // PolicyService facade works too (same wire path).
  const serve::ServeReply via_facade = client.Act(4, ObsFor(4, 0));
  EXPECT_FALSE(via_facade.exec_clamped);

  ASSERT_EQ(client.TryEndSession(3), TransportStatus::kOk);
  client.EndSession(4);
  const std::vector<uint64_t> ended = service.ended();
  ASSERT_EQ(ended.size(), 2u);
  EXPECT_EQ(ended[0], 3u);
  EXPECT_EQ(ended[1], 4u);

  EXPECT_GE(server.stats().requests, 5);
  EXPECT_EQ(server.stats().malformed_frames, 0);
  server.Shutdown();
}

TEST(Transport, MetricsSnapshotTravelsAndMerges) {
  FakeEchoService service;
  PolicyServerConfig config;
  obs::MetricsRegistry registry;
  registry.GetCounter("demo.requests")->Add(41);
  registry.GetGauge("demo.depth")->Set(2.5);
  registry.GetHistogram("demo.latency_us")->Record(100.0);
  config.metrics_source = [&registry] { return registry.Snapshot(); };
  PolicyServer server(&service, config);
  ASSERT_TRUE(server.Start());

  PolicyClient client(ClientFor(server));
  obs::MetricsSnapshot remote;
  ASSERT_EQ(client.FetchMetrics(&remote), TransportStatus::kOk);

  // The wire copy merges exactly like a local registry snapshot.
  obs::MetricsRegistry local;
  local.GetCounter("demo.requests")->Add(1);
  const obs::MetricsSnapshot merged =
      obs::MergeSnapshots({remote, local.Snapshot()});
  bool found = false;
  for (const auto& counter : merged.counters) {
    if (counter.name == "demo.requests") {
      EXPECT_EQ(counter.value, 42);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Transport, MetricsWithoutSourceIsTypedUnavailable) {
  FakeEchoService service;
  PolicyServer server(&service, PolicyServerConfig{});
  ASSERT_TRUE(server.Start());

  PolicyClient client(ClientFor(server));
  obs::MetricsSnapshot snapshot;
  ASSERT_EQ(client.FetchMetrics(&snapshot), TransportStatus::kRemoteError);
  EXPECT_EQ(client.last_remote_error(), WireError::kUnavailable);

  // The error frame did not desynchronize the stream: the same
  // connection still answers pings.
  EXPECT_EQ(client.Ping(), TransportStatus::kOk);
}

// ---------------------------------------------------------------------------
// The acceptance bar: serving through the socket is bitwise-identical
// to serving in-process.
// ---------------------------------------------------------------------------

TEST(Transport, SocketPathIsBitwiseIdenticalToInProcess) {
  Rng rng(171);
  sadae::Sadae sadae_model(TinySadaeConfig(), rng);
  core::ContextAgent agent(TinySim2RecConfig(), &sadae_model, rng);

  // Users [0, kUsers) go through one client in order. Users
  // [kUsers, kAllUsers) go through kClients more clients at once, each
  // on its own thread and connection, pipelining one step of all its
  // users per round trip, so requests meet in the router's batches.
  constexpr int kUsers = 6;
  constexpr int kClients = 3;
  constexpr int kAllUsers = kUsers + 8 * kClients;
  constexpr int kSteps = 4;
  const serve::ServeRouterConfig router_config{};

  // In-process reference.
  std::vector<std::vector<serve::ServeReply>> reference(kAllUsers);
  {
    serve::ServeRouter router(&agent, router_config, /*initial_shards=*/2);
    for (int u = 0; u < kAllUsers; ++u) {
      for (int t = 0; t < kSteps; ++t) {
        reference[u].push_back(router.Act(u, ObsFor(u, t)));
      }
    }
  }
  const auto expect_reference = [&reference](const serve::ServeReply& got,
                                             int u, int t) {
    const serve::ServeReply& want = reference[u][t];
    EXPECT_TRUE(BitwiseEqual(got.action, want.action))
        << "user=" << u << " step=" << t;
    uint64_t got_bits, want_bits;
    std::memcpy(&got_bits, &got.value, 8);
    std::memcpy(&want_bits, &want.value, 8);
    EXPECT_EQ(got_bits, want_bits) << "user=" << u << " step=" << t;
    EXPECT_EQ(got.exec_clamped, want.exec_clamped);
  };

  // Same topology behind the transport.
  serve::ServeRouter router(&agent, router_config, /*initial_shards=*/2);
  PolicyServerConfig server_config;
  server_config.num_workers = 1 + kClients;
  server_config.metrics_source = [&router] { return router.MergedMetrics(); };
  PolicyServer server(&router, server_config);
  ASSERT_TRUE(server.Start());
  PolicyClient client(ClientFor(server));

  for (int u = 0; u < kUsers; ++u) {
    for (int t = 0; t < kSteps; ++t) {
      serve::ServeReply reply;
      ASSERT_EQ(client.TryAct(u, ObsFor(u, t), &reply),
                TransportStatus::kOk);
      expect_reference(reply, u, t);
    }
  }

  std::vector<std::vector<serve::ServeReply>> concurrent(
      kAllUsers, std::vector<serve::ServeReply>(kSteps));
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      PolicyClient own(ClientFor(server));
      for (int t = 0; t < kSteps; ++t) {
        std::vector<PolicyClient::ActHandle> handles;
        for (int u = kUsers + c; u < kAllUsers; u += kClients) {
          handles.push_back(own.SubmitAct(u, ObsFor(u, t)));
        }
        const std::vector<PolicyClient::ActResult> results =
            own.AwaitAll(handles);
        for (size_t i = 0; i < results.size(); ++i) {
          if (results[i].status != TransportStatus::kOk) failed.fetch_add(1);
          concurrent[kUsers + c + kClients * i][t] = results[i].reply;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(failed.load(), 0);
  for (int u = kUsers; u < kAllUsers; ++u) {
    for (int t = 0; t < kSteps; ++t) expect_reference(concurrent[u][t], u, t);
  }

  // The merged serve.* metrics are fetchable over the same connection.
  obs::MetricsSnapshot merged;
  ASSERT_EQ(client.FetchMetrics(&merged), TransportStatus::kOk);
  bool found = false;
  for (const auto& counter : merged.counters) {
    if (counter.name == "serve.requests") {
      EXPECT_EQ(counter.value, kAllUsers * kSteps);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Transport, WrongObsWidthIsTypedBadPayloadNotAbort) {
  Rng rng(172);
  sadae::Sadae sadae_model(TinySadaeConfig(), rng);
  core::ContextAgent agent(TinySim2RecConfig(), &sadae_model, rng);
  serve::ServeRouter router(&agent, serve::ServeRouterConfig{},
                            /*initial_shards=*/2);
  PolicyServerConfig server_config;
  server_config.num_workers = 2;
  PolicyServer server(&router, server_config);
  ASSERT_TRUE(server.Start());

  // Well framed, but one column short of what the policy takes: a typed
  // kBadPayload for this request, not an abort of the whole server.
  const nn::Tensor narrow(1, envs::kLtsObsDim - 1);
  PolicyClient client(ClientFor(server));
  serve::ServeReply reply;
  EXPECT_EQ(client.TryAct(1, narrow, &reply), TransportStatus::kRemoteError);
  EXPECT_EQ(client.last_remote_error(), WireError::kBadPayload);

  // The same connection still serves a correct-width request, and a
  // fresh client still reaches the server.
  const serve::ServeReply served = client.Act(1, ObsFor(1, 0));
  EXPECT_EQ(served.action.cols(), 1);
  EXPECT_FALSE(served.action.HasNonFinite());
  PolicyClient fresh(ClientFor(server));
  EXPECT_EQ(fresh.Ping(), TransportStatus::kOk);

  // In process, the router reports the same fault as an exception.
  EXPECT_THROW(router.Act(2, narrow), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Malformed input: the server must degrade, never abort.
// ---------------------------------------------------------------------------

class MalformedInputTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PolicyServerConfig config;
    config.num_workers = 2;
    config.limits.max_frame_bytes = 1 << 16;
    config.limits.request_timeout_ms = 1000;
    server_ = std::make_unique<PolicyServer>(&service_, config);
    ASSERT_TRUE(server_->Start());
  }

  TcpConnection Dial() {
    TcpConnection conn =
        TcpConnection::Connect("127.0.0.1", server_->port(), 2000);
    EXPECT_TRUE(conn.valid());
    return conn;
  }

  /// The liveness probe every malformed-input test ends with: a fresh,
  /// well-behaved client must still be served.
  void ExpectServerStillUp() {
    PolicyClient client(ClientFor(*server_));
    EXPECT_EQ(client.Ping(), TransportStatus::kOk);
  }

  FakeEchoService service_;
  std::unique_ptr<PolicyServer> server_;
};

TEST_F(MalformedInputTest, BadMagicGetsErrorThenClose) {
  TcpConnection conn = Dial();
  std::string frame = EncodeFrame(MessageType::kPingRequest, EncodeU64(1));
  frame[0] = 'Z';
  ASSERT_TRUE(WriteAll(conn, frame));

  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(ReadFrame(conn, &header, &payload));
  EXPECT_EQ(header.type, MessageType::kError);
  WireError code;
  std::string message;
  ASSERT_TRUE(DecodeError(payload, &code, &message));
  EXPECT_EQ(code, WireError::kMalformedFrame);
  // Framing is unrecoverable: the server hangs up after the error.
  uint8_t byte;
  EXPECT_EQ(conn.ReadFull(&byte, 1, 2000), IoStatus::kClosed);
  EXPECT_GE(server_->stats().malformed_frames, 1);
  ExpectServerStillUp();
}

TEST_F(MalformedInputTest, OversizedLengthGetsErrorThenClose) {
  TcpConnection conn = Dial();
  // A header claiming a 1 GiB payload; the server must reject it from
  // the length field alone, before any allocation.
  std::string frame = EncodeFrame(MessageType::kActRequest, std::string());
  const uint32_t huge = 1u << 30;
  std::memcpy(frame.data() + 8, &huge, 4);
  ASSERT_TRUE(WriteAll(conn, frame.substr(0, kFramePrefixBytes)));

  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(ReadFrame(conn, &header, &payload));
  EXPECT_EQ(header.type, MessageType::kError);
  ExpectServerStillUp();
}

TEST_F(MalformedInputTest, CrcMismatchGetsErrorThenClose) {
  TcpConnection conn = Dial();
  std::string frame = EncodeFrame(MessageType::kPingRequest, EncodeU64(5));
  frame[frame.size() - 1] ^= 0x10;  // corrupt the payload, CRC now stale
  ASSERT_TRUE(WriteAll(conn, frame));

  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(ReadFrame(conn, &header, &payload));
  EXPECT_EQ(header.type, MessageType::kError);
  WireError code;
  std::string message;
  ASSERT_TRUE(DecodeError(payload, &code, &message));
  EXPECT_EQ(code, WireError::kMalformedFrame);
  ExpectServerStillUp();
}

TEST_F(MalformedInputTest, TruncatedFrameThenDisconnectIsSurvivable) {
  {
    TcpConnection conn = Dial();
    const std::string frame =
        EncodeFrame(MessageType::kActRequest, EncodeActRequest(1, ObsFor(1, 0)));
    // Half a frame, then hang up mid-stream.
    ASSERT_TRUE(WriteAll(conn, frame.substr(0, frame.size() / 2)));
  }  // destructor closes the socket
  ExpectServerStillUp();
}

TEST_F(MalformedInputTest, UnknownTypeKeepsConnectionUsable) {
  TcpConnection conn = Dial();
  ASSERT_TRUE(
      WriteAll(conn, EncodeFrame(static_cast<MessageType>(200), "??")));

  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(ReadFrame(conn, &header, &payload));
  ASSERT_EQ(header.type, MessageType::kError);
  WireError code;
  std::string message;
  ASSERT_TRUE(DecodeError(payload, &code, &message));
  EXPECT_EQ(code, WireError::kUnsupportedType);

  // Intact-but-unintelligible does NOT cost the connection: a valid
  // ping on the same stream still answers.
  ASSERT_TRUE(
      WriteAll(conn, EncodeFrame(MessageType::kPingRequest, EncodeU64(9))));
  ASSERT_TRUE(ReadFrame(conn, &header, &payload));
  EXPECT_EQ(header.type, MessageType::kPingReply);
  uint64_t nonce = 0;
  uint8_t version = 0;
  ASSERT_TRUE(DecodePingReply(payload, &nonce, &version));
  EXPECT_EQ(nonce, 9u);
}

TEST_F(MalformedInputTest, FutureVersionIsUnsupportedNotCorrupt) {
  // Every version byte but 3 — older, newer or nonsense — is refused
  // from the 16-byte prefix alone. Another version's header length is
  // unknown, so the server answers kUnsupportedVersion and hangs up
  // rather than waiting (up to the 1000 ms request timeout) for header
  // bytes such a frame may never send.
  std::vector<std::string> frames;
  for (const uint8_t version : {0, 1, 2, 4, 255}) {
    std::string frame = EncodeFrame(MessageType::kPingRequest, EncodeU64(1));
    frame[4] = static_cast<char>(version);
    frames.push_back(frame);
  }
  frames.push_back(BareV1Frame(MessageType::kMetricsRequest));

  for (const std::string& frame : frames) {
    SCOPED_TRACE("version=" +
                 std::to_string(static_cast<uint8_t>(frame[4])) +
                 " bytes=" + std::to_string(frame.size()));
    const auto start = std::chrono::steady_clock::now();
    TcpConnection conn = Dial();
    ASSERT_TRUE(WriteAll(conn, frame));
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(ReadFrame(conn, &header, &payload));
    ASSERT_EQ(header.type, MessageType::kError);
    WireError code;
    std::string message;
    ASSERT_TRUE(DecodeError(payload, &code, &message));
    EXPECT_EQ(code, WireError::kUnsupportedVersion);
    uint8_t byte;
    EXPECT_EQ(conn.ReadFull(&byte, 1, 2000), IoStatus::kClosed);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(500));
    ExpectServerStillUp();
  }
  // Refused as another version, never counted as corruption.
  EXPECT_EQ(server_->stats().malformed_frames, 0);
}

TEST_F(MalformedInputTest, UndecodablePayloadIsTypedBadPayload) {
  PolicyClient client(ClientFor(*server_));
  TcpConnection conn = Dial();
  // An Act frame whose payload is three junk bytes.
  ASSERT_TRUE(WriteAll(conn, EncodeFrame(MessageType::kActRequest, "junk")));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(ReadFrame(conn, &header, &payload));
  ASSERT_EQ(header.type, MessageType::kError);
  WireError code;
  std::string message;
  ASSERT_TRUE(DecodeError(payload, &code, &message));
  EXPECT_EQ(code, WireError::kBadPayload);
}

// ---------------------------------------------------------------------------
// Client-side typed errors.
// ---------------------------------------------------------------------------

TEST(TransportClient, DeadPortIsConnectFailed) {
  // Bind-then-close: the port was just proven free.
  int dead_port;
  {
    TcpListener probe;
    ASSERT_TRUE(probe.Listen("127.0.0.1", 0, 1));
    dead_port = probe.port();
  }
  PolicyClientConfig config;
  config.port = dead_port;
  config.limits.connect_timeout_ms = 200;
  config.max_retries = 1;
  config.retry_backoff_initial_ms = 1;
  config.retry_backoff_max_ms = 2;
  PolicyClient client(config);
  serve::ServeReply reply;
  EXPECT_EQ(client.TryAct(1, ObsFor(1, 0), &reply),
            TransportStatus::kConnectFailed);
  EXPECT_EQ(client.Ping(), TransportStatus::kConnectFailed);
}

TEST(Transport, OutOfRangePortIsRefusedNotWrapped) {
  // The address's port field is 16 bits: cast unchecked, 65536 + p
  // would bind or reach port p, and -1 would bind port 65535.
  int free_port;
  {
    TcpListener probe;
    ASSERT_TRUE(probe.Listen("127.0.0.1", 0, 1));
    free_port = probe.port();
  }
  FakeEchoService service;
  PolicyServerConfig wrapped;
  wrapped.port = 65536 + free_port;
  PolicyServer refused(&service, wrapped);
  EXPECT_FALSE(refused.Start());
  TcpListener negative;
  EXPECT_FALSE(negative.Listen("127.0.0.1", -1, 1));
  HttpMetricsConfig http_config;
  http_config.port = 65536 + free_port;
  HttpMetricsServer http([] { return obs::MetricsSnapshot(); }, http_config);
  EXPECT_FALSE(http.Start());

  PolicyServer server(&service, PolicyServerConfig{});
  ASSERT_TRUE(server.Start());
  EXPECT_FALSE(
      TcpConnection::Connect("127.0.0.1", 65536 + server.port(), 200).valid());
  EXPECT_FALSE(TcpConnection::Connect("127.0.0.1", 0, 200).valid());
  PolicyClientConfig config = ClientFor(server);
  config.port = 65536 + server.port();
  PolicyClient client(config);
  serve::ServeReply reply;
  EXPECT_EQ(client.TryAct(1, ObsFor(1, 0), &reply),
            TransportStatus::kConnectFailed);
  EXPECT_EQ(service.acts(), 0);
}

TEST(TransportClient, GarbageOrOtherVersionReplyIsMalformedAndHangupIsClosed) {
  TcpListener listener;
  ASSERT_TRUE(listener.Listen("127.0.0.1", 0, 4));
  // How the fake server answers the one request on each connection.
  enum Mode { kGarbage, kOtherVersion, kHangUp };
  std::atomic<int> mode{kGarbage};
  std::thread fake_server([&listener, &mode] {
    for (int i = 0; i < 3; ++i) {
      IoStatus status;
      TcpConnection conn = listener.Accept(5000, &status);
      if (!conn.valid()) return;
      RawAct act;
      if (!ReadActRequest(conn, &act)) continue;
      if (mode.load() == kGarbage) {
        const std::string garbage(kFrameHeaderBytes + 8, 'G');
        conn.WriteFull(garbage.data(), garbage.size(), 2000);
      } else if (mode.load() == kOtherVersion) {
        std::string reply = ActReplyFrame(act.user_id, act.request_id);
        reply[4] = 2;
        conn.WriteFull(reply.data(), reply.size(), 2000);
      }
      // kHangUp: just close
    }
  });

  PolicyClientConfig config;
  config.port = listener.port();
  config.limits.request_timeout_ms = 2000;
  PolicyClient client(config);
  serve::ServeReply reply;
  EXPECT_EQ(client.TryAct(1, ObsFor(1, 0), &reply),
            TransportStatus::kMalformedReply);

  // A reply of another version: its header length is unknown, so the
  // stream cannot be followed and the request fails typed.
  mode.store(kOtherVersion);
  EXPECT_EQ(client.TryAct(2, ObsFor(2, 0), &reply),
            TransportStatus::kMalformedReply);

  // The server hangs up with the request in flight: kClosed, because
  // the request may or may not have been applied.
  mode.store(kHangUp);
  EXPECT_EQ(client.TryAct(3, ObsFor(3, 0), &reply),
            TransportStatus::kClosed);
  // Join before Close: the fake server exits on its own after three
  // connections, and closing an fd another thread may still be
  // polling is a race.
  fake_server.join();
  listener.Close();
}

TEST(TransportClient, ReplyBeyondClientBoundIsFrameTooLarge) {
  FakeEchoService service;
  PolicyServer server(&service, PolicyServerConfig{});
  ASSERT_TRUE(server.Start());

  PolicyClientConfig config = ClientFor(server);
  // Too small for the echoed act reply (4 doubles + reply framing).
  config.limits.max_frame_bytes = kFrameHeaderBytes + 16;
  PolicyClient client(config);
  serve::ServeReply reply;
  EXPECT_EQ(client.TryAct(1, ObsFor(1, 0), &reply),
            TransportStatus::kFrameTooLarge);
}

// ---------------------------------------------------------------------------
// Shutdown drains under traffic.
// ---------------------------------------------------------------------------

TEST(Transport, ShutdownUnderTrafficDrainsWithoutCrashing) {
  FakeEchoService service;
  PolicyServerConfig config;
  config.num_workers = 3;
  PolicyServer server(&service, config);
  ASSERT_TRUE(server.Start());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> ok{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      PolicyClientConfig client_config = ClientFor(server);
      client_config.limits.request_timeout_ms = 500;
      client_config.limits.connect_timeout_ms = 500;
      PolicyClient client(client_config);
      int step = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        serve::ServeReply reply;
        if (client.TryAct(i, ObsFor(i, step++ % 7), &reply) ==
            TransportStatus::kOk) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Let traffic flow, then shut down mid-stream.
  while (ok.load(std::memory_order_relaxed) < 20) {
    std::this_thread::yield();
  }
  server.Shutdown();
  stop.store(true, std::memory_order_relaxed);
  for (auto& client : clients) client.join();

  // Every request the service saw got a full reply or a typed failure;
  // nothing crashed and the drained request count is consistent.
  EXPECT_GE(service.acts(), ok.load());
  server.Shutdown();  // idempotent
}

// ---------------------------------------------------------------------------
// Fault injection across the wire (PR 6 satellite): a flaky backend
// behind the server surfaces as typed errors and timeouts the client
// survives — never a broken connection or a corrupted stream.
// ---------------------------------------------------------------------------

TEST(TransportFlaky, BackendThrowBecomesTypedInternalAndConnectionSurvives) {
  FakeEchoService inner;
  load::FlakyConfig flaky_config;
  flaky_config.fail_every_n = 2;  // every second Act throws
  load::FlakyPolicyService flaky(&inner, flaky_config);
  PolicyServer server(&flaky, PolicyServerConfig{});
  ASSERT_TRUE(server.Start());
  PolicyClient client(ClientFor(server));

  serve::ServeReply reply;
  ASSERT_EQ(client.TryAct(1, ObsFor(1, 0), &reply), TransportStatus::kOk);
  // Act #2: the backend throws; the server converts it into a
  // kError(kInternal) frame instead of dropping the connection.
  EXPECT_EQ(client.TryAct(1, ObsFor(1, 1), &reply),
            TransportStatus::kRemoteError);
  EXPECT_EQ(client.last_remote_error(), WireError::kInternal);
  // Same connection, next request: healthy again, bit-exact echo.
  ASSERT_EQ(client.TryAct(1, ObsFor(1, 2), &reply), TransportStatus::kOk);
  EXPECT_TRUE(BitwiseEqual(reply.action, ObsFor(1, 2)));
  // Still on the very first connection: the error frame never forced a
  // reconnect (stats count the initial lazy connect as one).
  EXPECT_EQ(client.stats().reconnects, 1);

  // EndSession faults surface the same way.
  load::FlakyConfig end_config;
  end_config.fail_end_session_every_n = 1;
  load::FlakyPolicyService flaky_ends(&inner, end_config);
  PolicyServer end_server(&flaky_ends, PolicyServerConfig{});
  ASSERT_TRUE(end_server.Start());
  PolicyClient end_client(ClientFor(end_server));
  EXPECT_EQ(end_client.TryEndSession(9), TransportStatus::kRemoteError);
  EXPECT_EQ(end_client.last_remote_error(), WireError::kInternal);
  EXPECT_EQ(end_client.Ping(), TransportStatus::kOk);  // stream intact
}

TEST(TransportFlaky, InjectedDelayTripsClientDeadlineAndClientRecovers) {
  FakeEchoService inner;
  load::FlakyConfig flaky_config;
  flaky_config.delay_every_n = 2;  // every second Act stalls...
  flaky_config.delay_ms = 400;     // ...past the client's deadline
  load::FlakyPolicyService flaky(&inner, flaky_config);
  PolicyServerConfig server_config;
  server_config.num_workers = 2;  // the stalled worker must not block us
  PolicyServer server(&flaky, server_config);
  ASSERT_TRUE(server.Start());

  PolicyClientConfig client_config = ClientFor(server);
  client_config.limits.request_timeout_ms = 50;
  PolicyClient client(client_config);

  serve::ServeReply reply;
  ASSERT_EQ(client.TryAct(1, ObsFor(1, 0), &reply), TransportStatus::kOk);
  const TransportStatus slow = client.TryAct(1, ObsFor(1, 1), &reply);
  EXPECT_EQ(slow, TransportStatus::kTimeout);
  // A deadline miss abandons only that request id: the late reply is
  // matched by id and dropped, and the SAME connection keeps serving —
  // no reconnect.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  ASSERT_EQ(client.TryAct(1, ObsFor(1, 2), &reply), TransportStatus::kOk);
  EXPECT_TRUE(BitwiseEqual(reply.action, ObsFor(1, 2)));
  EXPECT_EQ(client.stats().reconnects, 1);  // still the first connection
  EXPECT_GE(client.stats().timeouts, 1);
  // The driver-facing accounting stays exact: the flaky wrapper saw
  // every attempt, including the one whose reply nobody read.
  EXPECT_EQ(flaky.stats().injected_delays, 1);
}

// ---------------------------------------------------------------------------
// Request ids: every reply carries the id of the request it answers.
// ---------------------------------------------------------------------------

TEST(Transport, V3ReplyEchoesTheRequestId) {
  FakeEchoService service;
  PolicyServer server(&service, PolicyServerConfig{});
  ASSERT_TRUE(server.Start());

  TcpConnection conn =
      TcpConnection::Connect("127.0.0.1", server.port(), 2000);
  ASSERT_TRUE(conn.valid());

  const nn::Tensor obs = ObsFor(7, 0);
  constexpr uint64_t kId = 0x7777AAAA5555CCCCULL;
  ASSERT_TRUE(WriteAll(
      conn, EncodeFrame(MessageType::kActRequest, EncodeActRequest(7, obs),
                        /*flags=*/0, kId)));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(ReadFrame(conn, &header, &payload));
  EXPECT_EQ(header.type, MessageType::kActReply);
  EXPECT_EQ(header.request_id, kId);  // the multiplexing key

  // Typed error replies echo the id too, so a pipelined client can
  // fail exactly the offending request.
  ASSERT_TRUE(WriteAll(conn, EncodeFrame(MessageType::kActRequest, "junk",
                                         /*flags=*/0, /*request_id=*/99)));
  ASSERT_TRUE(ReadFrame(conn, &header, &payload));
  EXPECT_EQ(header.type, MessageType::kError);
  EXPECT_EQ(header.request_id, 99u);
}

// ---------------------------------------------------------------------------
// The async tier: SubmitAct / Await / AwaitAll over one multiplexed
// connection (tentpole behavior).
// ---------------------------------------------------------------------------

TEST(TransportAsync, PipelinedActsThroughRealServerAllComplete) {
  FakeEchoService service;
  PolicyServerConfig config;
  config.num_workers = 2;
  config.dispatch_threads = 2;
  PolicyServer server(&service, config);
  ASSERT_TRUE(server.Start());
  PolicyClient client(ClientFor(server));

  constexpr int kDepth = 8;
  std::vector<PolicyClient::ActHandle> handles;
  handles.reserve(kDepth);
  for (int u = 0; u < kDepth; ++u) {
    handles.push_back(client.SubmitAct(u, ObsFor(u, 0)));
    ASSERT_TRUE(handles.back().valid());
  }
  const std::vector<PolicyClient::ActResult> results =
      client.AwaitAll(handles);
  ASSERT_EQ(results.size(), static_cast<size_t>(kDepth));
  for (int u = 0; u < kDepth; ++u) {
    ASSERT_EQ(results[u].status, TransportStatus::kOk) << "u=" << u;
    EXPECT_TRUE(BitwiseEqual(results[u].reply.action, ObsFor(u, 0)))
        << "u=" << u;
    EXPECT_EQ(results[u].reply.exec_clamped, (u % 2) == 1);
  }
  EXPECT_GE(server.stats().dispatched_requests, kDepth);
  EXPECT_EQ(client.stats().reconnects, 1);  // one connection carried all 8
}

TEST(TransportAsync, OutOfOrderRepliesRouteByRequestId) {
  TcpListener listener;
  ASSERT_TRUE(listener.Listen("127.0.0.1", 0, 1));
  std::thread fake_server([&listener] {
    IoStatus status;
    TcpConnection conn = listener.Accept(5000, &status);
    if (!conn.valid()) return;
    RawAct first, second;
    if (!ReadActRequest(conn, &first) || !ReadActRequest(conn, &second)) {
      return;
    }
    EXPECT_NE(first.request_id, second.request_id);
    // Answer the SECOND submission first: the client must route by id,
    // not arrival order.
    WriteAll(conn, ActReplyFrame(second.user_id, second.request_id));
    WriteAll(conn, ActReplyFrame(first.user_id, first.request_id));
  });

  PolicyClientConfig config;
  config.port = listener.port();
  config.max_retries = 1;
  PolicyClient client(config);
  const PolicyClient::ActHandle h1 = client.SubmitAct(1, ObsFor(1, 0));
  const PolicyClient::ActHandle h2 = client.SubmitAct(2, ObsFor(2, 0));
  serve::ServeReply r1, r2;
  EXPECT_EQ(client.Await(h1, &r1), TransportStatus::kOk);
  EXPECT_EQ(client.Await(h2, &r2), TransportStatus::kOk);
  EXPECT_EQ(r1.action(0, 0), 1.0);
  EXPECT_EQ(r2.action(0, 0), 2.0);
  fake_server.join();
  listener.Close();
}

TEST(TransportAsync, DuplicateReplyIdPoisonsTheConnection) {
  TcpListener listener;
  ASSERT_TRUE(listener.Listen("127.0.0.1", 0, 1));
  std::thread fake_server([&listener] {
    IoStatus status;
    TcpConnection conn = listener.Accept(5000, &status);
    if (!conn.valid()) return;
    RawAct first, second;
    if (!ReadActRequest(conn, &first) || !ReadActRequest(conn, &second)) {
      return;
    }
    // Reply to the first request twice. A duplicate id means the
    // stream can no longer be trusted to route replies correctly.
    WriteAll(conn, ActReplyFrame(first.user_id, first.request_id));
    WriteAll(conn, ActReplyFrame(first.user_id, first.request_id));
    // Hold the socket open: the client must fail on its own, not via
    // our hangup.
    uint8_t byte;
    conn.ReadFull(&byte, 1, 5000);
  });

  PolicyClientConfig config;
  config.port = listener.port();
  config.max_retries = 1;
  PolicyClient client(config);
  const PolicyClient::ActHandle h1 = client.SubmitAct(1, ObsFor(1, 0));
  const PolicyClient::ActHandle h2 = client.SubmitAct(2, ObsFor(2, 0));
  serve::ServeReply r1, r2;
  EXPECT_EQ(client.Await(h1, &r1), TransportStatus::kOk);
  EXPECT_EQ(client.Await(h2, &r2), TransportStatus::kClosed);
  client.Close();  // unblocks the fake server's final read
  fake_server.join();
  listener.Close();
}

TEST(TransportAsync, ReplyToUnknownIdPoisonsTheConnection) {
  TcpListener listener;
  ASSERT_TRUE(listener.Listen("127.0.0.1", 0, 1));
  std::thread fake_server([&listener] {
    IoStatus status;
    TcpConnection conn = listener.Accept(5000, &status);
    if (!conn.valid()) return;
    RawAct act;
    if (!ReadActRequest(conn, &act)) return;
    WriteAll(conn, ActReplyFrame(act.user_id, act.request_id ^ 0x5A5AULL));
    uint8_t byte;
    conn.ReadFull(&byte, 1, 5000);
  });

  PolicyClientConfig config;
  config.port = listener.port();
  config.max_retries = 1;
  PolicyClient client(config);
  const PolicyClient::ActHandle handle = client.SubmitAct(1, ObsFor(1, 0));
  serve::ServeReply reply;
  EXPECT_EQ(client.Await(handle, &reply), TransportStatus::kClosed);
  client.Close();
  fake_server.join();
  listener.Close();
}

TEST(TransportAsync, CrcFlipMidPipelineFailsEverythingInFlight) {
  TcpListener listener;
  ASSERT_TRUE(listener.Listen("127.0.0.1", 0, 1));
  std::thread fake_server([&listener] {
    IoStatus status;
    TcpConnection conn = listener.Accept(5000, &status);
    if (!conn.valid()) return;
    RawAct acts[3];
    for (RawAct& act : acts) {
      if (!ReadActRequest(conn, &act)) return;
    }
    // One good reply, then a corrupted one: once a CRC fails the
    // stream offset itself is suspect, so EVERY remaining in-flight
    // request must fail typed — nothing downstream can be trusted.
    WriteAll(conn, ActReplyFrame(acts[0].user_id, acts[0].request_id));
    std::string corrupt =
        ActReplyFrame(acts[1].user_id, acts[1].request_id);
    corrupt[corrupt.size() - 1] ^= 0x10;
    WriteAll(conn, corrupt);
    uint8_t byte;
    conn.ReadFull(&byte, 1, 5000);
  });

  PolicyClientConfig config;
  config.port = listener.port();
  config.max_retries = 1;
  PolicyClient client(config);
  std::vector<PolicyClient::ActHandle> handles;
  for (int u = 1; u <= 3; ++u) {
    handles.push_back(client.SubmitAct(u, ObsFor(u, 0)));
  }
  const std::vector<PolicyClient::ActResult> results =
      client.AwaitAll(handles);
  EXPECT_EQ(results[0].status, TransportStatus::kOk);
  EXPECT_EQ(results[1].status, TransportStatus::kMalformedReply);
  EXPECT_EQ(results[2].status, TransportStatus::kMalformedReply);
  client.Close();
  fake_server.join();
  listener.Close();
}

TEST(TransportAsync, DisconnectWithEightInFlightFailsThemClosed) {
  TcpListener listener;
  ASSERT_TRUE(listener.Listen("127.0.0.1", 0, 1));
  std::thread fake_server([&listener] {
    IoStatus status;
    TcpConnection conn = listener.Accept(5000, &status);
    if (!conn.valid()) return;
    RawAct acts[8];
    for (RawAct& act : acts) {
      if (!ReadActRequest(conn, &act)) return;
    }
    WriteAll(conn, ActReplyFrame(acts[0].user_id, acts[0].request_id));
    WriteAll(conn, ActReplyFrame(acts[1].user_id, acts[1].request_id));
    // Hang up with six requests unanswered.
  });

  PolicyClientConfig config;
  config.port = listener.port();
  config.max_retries = 1;
  PolicyClient client(config);
  std::vector<PolicyClient::ActHandle> handles;
  for (int u = 0; u < 8; ++u) {
    handles.push_back(client.SubmitAct(u, ObsFor(u, 0)));
  }
  const std::vector<PolicyClient::ActResult> results =
      client.AwaitAll(handles);
  EXPECT_EQ(results[0].status, TransportStatus::kOk);
  EXPECT_EQ(results[1].status, TransportStatus::kOk);
  for (int u = 2; u < 8; ++u) {
    // kClosed, never a silent retry: Act is not idempotent, and the
    // server may have applied any of these before dying.
    EXPECT_EQ(results[u].status, TransportStatus::kClosed) << "u=" << u;
  }
  EXPECT_EQ(client.stats().reconnects, 1);
  fake_server.join();
  listener.Close();
}

TEST(TransportAsync, HandlesRedeemExactlyOnce) {
  FakeEchoService service;
  PolicyServer server(&service, PolicyServerConfig{});
  ASSERT_TRUE(server.Start());
  PolicyClient client(ClientFor(server));

  const PolicyClient::ActHandle handle = client.SubmitAct(4, ObsFor(4, 0));
  ASSERT_TRUE(handle.valid());
  serve::ServeReply reply;
  EXPECT_EQ(client.Await(handle, &reply), TransportStatus::kOk);
  // A handle is redeemed exactly once; replaying it is a caller bug
  // surfaced as a typed status, never a stale reply.
  EXPECT_EQ(client.Await(handle, &reply), TransportStatus::kInvalidHandle);
  EXPECT_EQ(client.Await(PolicyClient::ActHandle{}, &reply),
            TransportStatus::kInvalidHandle);
}

/// Smallest bucket index holding the p99 mass of a snapshotted
/// histogram (the bucket exemplar triage starts from); -1 when empty.
int P99Bucket(const obs::HistogramSample& histogram) {
  int64_t total = 0;
  for (const int64_t c : histogram.buckets) total += c;
  if (total == 0) return -1;
  const int64_t rank =
      static_cast<int64_t>(0.99 * static_cast<double>(total));
  int64_t seen = 0;
  for (size_t b = 0; b < histogram.buckets.size(); ++b) {
    seen += histogram.buckets[b];
    if (seen > rank) return static_cast<int>(b);
  }
  return static_cast<int>(histogram.buckets.size()) - 1;
}

/// Polls the global registry until the transport.request_us exemplar
/// stamped `trace_id` appears (the server records that histogram after
/// writing the reply, so the client can observe the reply a beat
/// before the exemplar lands). Returns false after 5 s; on success
/// fills the exemplar and the histogram it sat in.
bool AwaitRequestExemplar(uint64_t trace_id, obs::ExemplarSample* exemplar,
                          obs::HistogramSample* histogram) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();
    for (const obs::HistogramSample& h : snapshot.histograms) {
      if (h.name != "transport.request_us") continue;
      for (const obs::ExemplarSample& e : h.exemplars) {
        if (e.trace_id != trace_id) continue;
        *exemplar = e;
        *histogram = h;
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

bool HasActSpan(const std::vector<obs::TraceEvent>& events,
                uint64_t trace_id) {
  for (const obs::TraceEvent& event : events) {
    if (std::string(event.name) == "transport/act" &&
        event.trace_id == trace_id) {
      return true;
    }
  }
  return false;
}

TEST(Transport, TraceIdPropagatesToServerSpansAndExemplars) {
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().ResetAll();
  obs::TraceRecorder::Global().Start();

  // The last of kRequests Acts is held for kDelayMs: one slow request
  // among fast ones, the latency tail exemplar triage walks back from.
  constexpr int kRequests = 50;
  constexpr int kDelayMs = 20;
  FakeEchoService service;
  load::FlakyConfig flaky_config;
  flaky_config.delay_every_n = kRequests;
  flaky_config.delay_ms = kDelayMs;
  load::FlakyPolicyService flaky(&service, flaky_config);
  PolicyServer server(&flaky, PolicyServerConfig{});
  ASSERT_TRUE(server.Start());
  PolicyClient client(ClientFor(server));

  constexpr uint64_t kTraceId = 0xABCDEF0123456789ULL;
  {
    obs::TraceIdScope scope(kTraceId);
    serve::ServeReply reply;
    ASSERT_EQ(client.TryAct(11, ObsFor(11, 0), &reply),
              TransportStatus::kOk);
  }

  // The id crossed the wire: the server's latency histogram retained an
  // exemplar stamped with it ...
  obs::ExemplarSample exemplar;
  obs::HistogramSample request_us;
  EXPECT_TRUE(AwaitRequestExemplar(kTraceId, &exemplar, &request_us));

  // ... and so does the slow request, at the p99 end of the histogram.
  constexpr uint64_t kSlowTraceId = 0x5100F0123456789AULL;
  for (int i = 1; i < kRequests - 1; ++i) {
    serve::ServeReply reply;
    ASSERT_EQ(client.TryAct(12, ObsFor(12, i), &reply),
              TransportStatus::kOk);
  }
  {
    obs::TraceIdScope scope(kSlowTraceId);
    serve::ServeReply reply;
    ASSERT_EQ(client.TryAct(13, ObsFor(13, 0), &reply),
              TransportStatus::kOk);
  }
  EXPECT_EQ(flaky.stats().injected_delays, 1);
  ASSERT_TRUE(AwaitRequestExemplar(kSlowTraceId, &exemplar, &request_us));
  EXPECT_GE(exemplar.value, kDelayMs * 1000.0);
  EXPECT_GE(exemplar.bucket, P99Bucket(request_us));
  obs::TraceRecorder::Global().Stop();

  // A server-side transport/act span carries each id (the server
  // thread, not the client thread, recorded it).
  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::Global().EventsSnapshot();
  EXPECT_TRUE(HasActSpan(events, kTraceId));
  EXPECT_TRUE(HasActSpan(events, kSlowTraceId));
  obs::SetEnabled(was_enabled);
}

// ---------------------------------------------------------------------------
// HTTP metrics endpoint: the curl-facing peephole.
// ---------------------------------------------------------------------------

std::string HttpRequest(int port, const std::string& raw) {
  TcpConnection conn = TcpConnection::Connect("127.0.0.1", port, 2000);
  EXPECT_TRUE(conn.valid());
  if (!conn.valid()) return "";
  EXPECT_TRUE(WriteAll(conn, raw));
  std::string response;
  char buffer[4096];
  size_t n = 0;
  while (conn.ReadSome(buffer, sizeof(buffer), 2000, &n) == IoStatus::kOk) {
    response.append(buffer, n);
  }
  return response;
}

std::string HttpGet(int port, const std::string& target) {
  return HttpRequest(port, "GET " + target + " HTTP/1.0\r\n\r\n");
}

TEST(HttpEndpoint, ServesHealthzMetricsAndJson) {
  obs::MetricsRegistry registry;
  registry.GetCounter("demo.requests")->Add(7);
  registry.GetGauge("demo.depth")->Set(1.5);
  registry.GetHistogram("demo.latency_us")
      ->RecordWithExemplar(120.0, /*trace_id=*/99, "shard", 2.0);

  HttpMetricsConfig config;
  HttpMetricsServer server([&registry] { return registry.Snapshot(); },
                           config);
  ASSERT_TRUE(server.Start());

  const std::string healthz = HttpGet(server.port(), "/healthz");
  EXPECT_NE(healthz.find("200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("ok\n"), std::string::npos);

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE demo_requests counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("demo_requests 7"), std::string::npos);
  EXPECT_NE(metrics.find("demo_depth 1.5"), std::string::npos);
  EXPECT_NE(metrics.find("demo_latency_us_count 1"), std::string::npos);
  EXPECT_NE(metrics.find("trace_id=99"), std::string::npos);

  const std::string json = HttpGet(server.port(), "/metrics.json");
  EXPECT_NE(json.find("application/json"), std::string::npos);
  const size_t body = json.find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos);
  std::string json_error;
  EXPECT_TRUE(obs::JsonValidate(json.substr(body + 4), &json_error))
      << json_error;

  // Query strings are stripped; HEAD omits the body.
  EXPECT_NE(HttpGet(server.port(), "/healthz?probe=1").find("200 OK"),
            std::string::npos);
  const std::string head =
      HttpRequest(server.port(), "HEAD /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(head.find("200 OK"), std::string::npos);
  EXPECT_EQ(head.find("ok\n"), std::string::npos);
}

TEST(HttpEndpoint, RejectsUnknownPathsMethodsAndGarbage) {
  obs::MetricsRegistry registry;
  HttpMetricsConfig config;
  config.max_request_bytes = 256;
  HttpMetricsServer server([&registry] { return registry.Snapshot(); },
                           config);
  ASSERT_TRUE(server.Start());

  EXPECT_NE(HttpGet(server.port(), "/nope").find("404"),
            std::string::npos);
  EXPECT_NE(
      HttpRequest(server.port(), "POST /metrics HTTP/1.0\r\n\r\n")
          .find("405"),
      std::string::npos);
  EXPECT_NE(HttpRequest(server.port(), "garbage\r\n\r\n").find("400"),
            std::string::npos);
  // Oversized request line: the size cap answers 400 before the
  // request completes.
  EXPECT_NE(HttpRequest(server.port(),
                        "GET /" + std::string(512, 'a') + " HTTP/1.0\r\n")
                .find("400"),
            std::string::npos);
  // A well-behaved probe still works on the next connection: bad
  // requests cost nothing but their own connection.
  EXPECT_NE(HttpGet(server.port(), "/healthz").find("200 OK"),
            std::string::npos);
  const HttpMetricsStats stats = server.stats();
  EXPECT_GE(stats.bad_requests, 2);
  EXPECT_GE(stats.not_found, 1);
}

}  // namespace
}  // namespace transport
}  // namespace sim2rec
