#include "transport/policy_client.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/snapshot_codec.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace sim2rec {
namespace transport {
namespace {

/// Receiver idle tick: how often a quiet receiver re-checks the
/// connection-dead flag. Bounds Close() latency, not reply latency.
constexpr int kRxTickMs = 50;

TransportStatus FromIo(IoStatus status) {
  switch (status) {
    case IoStatus::kTimeout:
      return TransportStatus::kTimeout;
    case IoStatus::kClosed:
      return TransportStatus::kClosed;
    default:
      return TransportStatus::kClosed;  // errno-shaped → unusable stream
  }
}

std::chrono::steady_clock::time_point DeadlineFrom(int timeout_ms) {
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(timeout_ms);
}

}  // namespace

PolicyClient::PolicyClient(const PolicyClientConfig& config)
    : config_(config) {
  S2R_CHECK_MSG(config.port > 0, "PolicyClient needs a port");
  S2R_CHECK(config.limits.connect_timeout_ms > 0);
  S2R_CHECK(config.limits.request_timeout_ms > 0);
  S2R_CHECK(config.limits.max_frame_bytes > kFrameHeaderBytes);
  S2R_CHECK(config.max_retries >= 0);
  S2R_CHECK(config.retry_backoff_initial_ms >= 1);
  S2R_CHECK(config.retry_backoff_max_ms >= config.retry_backoff_initial_ms);
}

PolicyClient::~PolicyClient() { Close(); }

TransportStatus PolicyClient::Connect() { return EnsureConnected(); }

TransportStatus PolicyClient::EnsureConnected() {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  if (socket_ != nullptr && !conn_dead_.load(std::memory_order_acquire)) {
    return TransportStatus::kOk;
  }
  return ConnectLocked();
}

TransportStatus PolicyClient::ConnectLocked() {
  // Retire the previous connection first: wake its receiver and wait
  // for it to fail any stragglers, so old state can never bleed into
  // the new stream.
  conn_dead_.store(true, std::memory_order_release);
  if (socket_ != nullptr) socket_->ShutdownBoth();
  if (rx_thread_.joinable()) rx_thread_.join();
  socket_.reset();
  {
    std::lock_guard<std::mutex> state_lock(mu_);
    abandoned_.clear();  // tombstones are per-connection
  }

  TcpConnection conn = TcpConnection::Connect(
      config_.host, config_.port, config_.limits.connect_timeout_ms);
  if (!conn.valid()) {
    S2R_COUNT("transport.client.connect_failures", 1);
    return TransportStatus::kConnectFailed;
  }

  conn_dead_.store(false, std::memory_order_release);
  socket_ = std::make_shared<TcpConnection>(std::move(conn));
  rx_thread_ = std::thread([this, socket = socket_] { ReceiverLoop(socket); });
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  S2R_COUNT("transport.client.connects", 1);
  return TransportStatus::kOk;
}

void PolicyClient::Close() {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  conn_dead_.store(true, std::memory_order_release);
  if (socket_ != nullptr) socket_->ShutdownBoth();
  if (rx_thread_.joinable()) rx_thread_.join();
  socket_.reset();
  // The receiver failed every pending request on its way out; anything
  // submitted after it exited is failed here.
  Poison(0, TransportStatus::kClosed);
}

void PolicyClient::Poison(uint64_t this_id, TransportStatus this_status) {
  conn_dead_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, pending] : pending_) {
      if (pending.done) continue;
      pending.done = true;
      pending.status =
          id == this_id ? this_status : TransportStatus::kClosed;
    }
  }
  cv_.notify_all();
}

uint64_t PolicyClient::Submit(MessageType type, const std::string& payload,
                              MessageType expected_reply, int deadline_ms) {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const int timeout_ms =
      deadline_ms > 0 ? deadline_ms : config_.limits.request_timeout_ms;

  std::shared_ptr<TcpConnection> socket;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    TransportStatus status = TransportStatus::kOk;
    if (socket_ == nullptr ||
        conn_dead_.load(std::memory_order_acquire)) {
      status = ConnectLocked();
    }
    if (status != TransportStatus::kOk) {
      // The failure surfaces at Await, keeping submission loops
      // branch-free.
      std::lock_guard<std::mutex> state_lock(mu_);
      Pending& pending = pending_[id];
      pending.done = true;
      pending.status = status;
      return id;
    }
    socket = socket_;
  }

  requests_.fetch_add(1, std::memory_order_relaxed);
  S2R_COUNT("transport.client.requests", 1);
  S2R_TRACE_SPAN("transport/client_request", "type",
                 static_cast<double>(static_cast<uint8_t>(type)));

  // Register before writing: the reply can race back before this
  // thread runs again, and the receiver must find the entry.
  {
    std::lock_guard<std::mutex> lock(mu_);
    Pending& pending = pending_[id];
    pending.expected = expected_reply;
    pending.type = type;
    pending.submit_us = obs::MonotonicMicros();
    pending.deadline = DeadlineFrom(timeout_ms);
  }

  const std::string frame = EncodeFrame(type, payload, /*flags=*/0, id);
  IoStatus io;
  {
    // Writes serialize on their own mutex — never on mu_, which the
    // receiver needs to complete replies while this write may be
    // blocked on a full socket buffer.
    std::lock_guard<std::mutex> lock(write_mutex_);
    io = socket->WriteFull(frame.data(), frame.size(), timeout_ms);
  }
  if (io != IoStatus::kOk) {
    // A partial frame corrupts the stream for every in-flight request.
    socket->ShutdownBoth();
    S2R_COUNT("transport.client.failures", 1);
    Poison(id, FromIo(io));
  }
  return id;
}

TransportStatus PolicyClient::AwaitPayload(uint64_t id,
                                           std::string* payload) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = pending_.find(id);
  if (it == pending_.end()) return TransportStatus::kInvalidHandle;
  while (!it->second.done) {
    if (cv_.wait_until(lock, it->second.deadline) ==
        std::cv_status::timeout &&
        !it->second.done) {
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      S2R_COUNT("transport.client.timeouts", 1);
      // Abandon just this request; its late reply (if any) is
      // recognized by id and dropped, the connection lives on.
      pending_.erase(it);
      abandoned_.insert(id);
      return TransportStatus::kTimeout;
    }
  }
  Pending done = std::move(it->second);
  pending_.erase(it);
  if (done.status == TransportStatus::kRemoteError) {
    last_error_ = done.remote_code;
    last_error_message_ = std::move(done.remote_message);
    return TransportStatus::kRemoteError;
  }
  if (done.status == TransportStatus::kOk) {
    *payload = std::move(done.payload);
    S2R_HISTOGRAM_EX(
        "transport.client.request_us",
        obs::MonotonicMicros() - done.submit_us, obs::CurrentTraceId(),
        "type", static_cast<double>(static_cast<uint8_t>(done.type)));
  } else if (done.status != TransportStatus::kInvalidHandle) {
    S2R_COUNT("transport.client.failures", 1);
  }
  return done.status;
}

void PolicyClient::ReceiverLoop(std::shared_ptr<TcpConnection> socket) {
  uint8_t header_bytes[kFrameHeaderBytes];

  // Any exit fails every in-flight request: replies can no longer
  // arrive once the receiver is gone.
  const auto fail_all = [&](TransportStatus status) {
    conn_dead_.store(true, std::memory_order_release);
    socket->ShutdownBoth();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [id, pending] : pending_) {
        if (pending.done) continue;
        pending.done = true;
        pending.status = status;
      }
    }
    cv_.notify_all();
  };

  for (;;) {
    if (conn_dead_.load(std::memory_order_acquire)) {
      fail_all(TransportStatus::kClosed);
      return;
    }
    const IoStatus readable = socket->WaitReadable(kRxTickMs);
    if (readable == IoStatus::kTimeout) continue;
    if (readable != IoStatus::kOk) {
      fail_all(TransportStatus::kClosed);
      return;
    }

    IoStatus io = socket->ReadFull(header_bytes, kFramePrefixBytes,
                                   config_.limits.request_timeout_ms);
    if (io != IoStatus::kOk) {
      fail_all(TransportStatus::kClosed);
      return;
    }
    FrameHeader header;
    const HeaderStatus decoded = DecodeHeader(
        header_bytes, config_.limits.max_frame_bytes, &header);
    if (decoded == HeaderStatus::kTooLarge) {
      fail_all(TransportStatus::kFrameTooLarge);
      return;
    }
    if (decoded != HeaderStatus::kOk) {
      // Bad magic, or a frame of another version whose length is
      // unknown: the stream cannot be followed any further.
      fail_all(TransportStatus::kMalformedReply);
      return;
    }
    io = socket->ReadFull(header_bytes + kFramePrefixBytes, kRequestIdBytes,
                          config_.limits.request_timeout_ms);
    if (io != IoStatus::kOk) {
      fail_all(TransportStatus::kClosed);
      return;
    }
    DecodeRequestId(header_bytes + kFramePrefixBytes, &header);
    std::string payload(header.payload_len, '\0');
    if (header.payload_len > 0) {
      io = socket->ReadFull(payload.data(), payload.size(),
                            config_.limits.request_timeout_ms);
      if (io != IoStatus::kOk) {
        fail_all(TransportStatus::kClosed);
        return;
      }
    }
    if (!FrameCrcMatches(header_bytes, payload)) {
      // Corrupt bytes mid-pipeline: nothing downstream of this point
      // on the stream can be trusted, so every in-flight request
      // fails, not just the one this frame answered.
      fail_all(TransportStatus::kMalformedReply);
      return;
    }

    std::unique_lock<std::mutex> lock(mu_);
    auto it = pending_.find(header.request_id);
    if (it == pending_.end()) {
      if (abandoned_.erase(header.request_id) > 0) {
        continue;  // late reply to a timed-out request; drop it
      }
      // A reply to an id we never sent (or sent and already answered):
      // protocol violation — reply routing can no longer be trusted.
      lock.unlock();
      fail_all(TransportStatus::kClosed);
      return;
    }
    if (it->second.done) {
      lock.unlock();
      fail_all(TransportStatus::kClosed);  // duplicate reply id
      return;
    }

    Pending& pending = it->second;
    if (header.type == MessageType::kError) {
      WireError code = WireError::kInternal;
      std::string message;
      if (!DecodeError(payload, &code, &message)) {
        lock.unlock();
        fail_all(TransportStatus::kMalformedReply);
        return;
      }
      pending.status = TransportStatus::kRemoteError;
      pending.remote_code = code;
      pending.remote_message = message;
      last_error_ = code;
      last_error_message_ = std::move(message);
      remote_errors_.fetch_add(1, std::memory_order_relaxed);
      S2R_COUNT("transport.client.remote_errors", 1);
    } else if (header.type != pending.expected) {
      // Well-framed but wrong type: fail this request; the stream
      // itself is still synchronized.
      pending.status = TransportStatus::kMalformedReply;
    } else {
      pending.status = TransportStatus::kOk;
      pending.payload = std::move(payload);
    }
    pending.done = true;
    lock.unlock();
    cv_.notify_all();
  }
}

PolicyClient::ActHandle PolicyClient::SubmitAct(uint64_t user_id,
                                                const nn::Tensor& obs,
                                                int deadline_ms) {
  // The caller's current trace id (0 when none) travels in the request
  // payload, so server-side spans and exemplars can be joined back to
  // this client-observed request.
  const uint64_t trace_id = obs::CurrentTraceId();
  return ActHandle{Submit(MessageType::kActRequest,
                          EncodeActRequest(user_id, obs, trace_id),
                          MessageType::kActReply, deadline_ms)};
}

TransportStatus PolicyClient::Await(ActHandle handle,
                                    serve::ServeReply* reply) {
  if (!handle.valid()) return TransportStatus::kInvalidHandle;
  std::string payload;
  const TransportStatus status = AwaitPayload(handle.id, &payload);
  if (status != TransportStatus::kOk) return status;
  if (!DecodeActReply(payload, reply)) {
    return TransportStatus::kMalformedReply;
  }
  return TransportStatus::kOk;
}

std::vector<PolicyClient::ActResult> PolicyClient::AwaitAll(
    const std::vector<ActHandle>& handles) {
  std::vector<ActResult> results(handles.size());
  for (size_t i = 0; i < handles.size(); ++i) {
    results[i].status = Await(handles[i], &results[i].reply);
  }
  return results;
}

serve::ServeReply PolicyClient::Act(uint64_t user_id, const nn::Tensor& obs) {
  serve::ServeReply reply;
  const TransportStatus status = TryAct(user_id, obs, &reply);
  S2R_CHECK_MSG(status == TransportStatus::kOk,
                "PolicyClient::Act transport failure (use TryAct for typed "
                "errors)");
  return reply;
}

void PolicyClient::EndSession(uint64_t user_id) {
  const TransportStatus status = TryEndSession(user_id);
  S2R_CHECK_MSG(status == TransportStatus::kOk,
                "PolicyClient::EndSession transport failure (use "
                "TryEndSession for typed errors)");
}

TransportStatus PolicyClient::TryAct(uint64_t user_id, const nn::Tensor& obs,
                                     serve::ServeReply* reply) {
  return Await(SubmitAct(user_id, obs), reply);
}

TransportStatus PolicyClient::TryEndSession(uint64_t user_id) {
  const uint64_t id =
      Submit(MessageType::kEndSessionRequest, EncodeU64(user_id),
             MessageType::kEndSessionReply, 0);
  std::string payload;
  const TransportStatus status = AwaitPayload(id, &payload);
  if (status != TransportStatus::kOk) return status;
  if (!payload.empty()) return TransportStatus::kMalformedReply;
  return TransportStatus::kOk;
}

TransportStatus PolicyClient::RetryingRoundTrip(
    MessageType request_type, const std::string& request_payload,
    MessageType expected_reply, std::string* reply_payload) {
  int backoff_ms = config_.retry_backoff_initial_ms;
  TransportStatus status = TransportStatus::kClosed;
  for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      S2R_COUNT("transport.client.retries", 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, config_.retry_backoff_max_ms);
    }
    const uint64_t id =
        Submit(request_type, request_payload, expected_reply, 0);
    status = AwaitPayload(id, reply_payload);
    // kRemoteError is a definitive answer, not a transient fault.
    if (status == TransportStatus::kOk ||
        status == TransportStatus::kRemoteError) {
      return status;
    }
  }
  return status;
}

TransportStatus PolicyClient::Ping(uint8_t* server_version) {
  const uint64_t nonce =
      ping_nonce_.fetch_add(1, std::memory_order_relaxed);
  std::string reply_payload;
  const TransportStatus status =
      RetryingRoundTrip(MessageType::kPingRequest, EncodeU64(nonce),
                        MessageType::kPingReply, &reply_payload);
  if (status != TransportStatus::kOk) return status;
  uint64_t echoed = 0;
  uint8_t version = 0;
  if (!DecodePingReply(reply_payload, &echoed, &version) ||
      echoed != nonce) {
    return TransportStatus::kMalformedReply;
  }
  if (server_version != nullptr) *server_version = version;
  return TransportStatus::kOk;
}

TransportStatus PolicyClient::FetchMetrics(obs::MetricsSnapshot* snapshot) {
  std::string reply_payload;
  const TransportStatus status =
      RetryingRoundTrip(MessageType::kMetricsRequest, std::string(),
                        MessageType::kMetricsReply, &reply_payload);
  if (status != TransportStatus::kOk) return status;
  if (!obs::DecodeSnapshot(reply_payload, snapshot)) {
    return TransportStatus::kMalformedReply;
  }
  return TransportStatus::kOk;
}

WireError PolicyClient::last_remote_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

std::string PolicyClient::last_remote_message() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_message_;
}

PolicyClientStats PolicyClient::stats() const {
  PolicyClientStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.reconnects = reconnects_.load(std::memory_order_relaxed);
  stats.retries = retries_.load(std::memory_order_relaxed);
  stats.remote_errors = remote_errors_.load(std::memory_order_relaxed);
  stats.timeouts = timeouts_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace transport
}  // namespace sim2rec
