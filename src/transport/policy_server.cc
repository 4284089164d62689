#include "transport/policy_server.h"

#include <stdexcept>
#include <utility>

#include "obs/snapshot_codec.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace sim2rec {
namespace transport {
namespace {

/// Idle tick between requests: how often a worker blocked on a quiet
/// connection re-checks the stop flag. Bounds shutdown latency, not
/// request latency (a readable connection is handled immediately).
constexpr int kIdleTickMs = 50;

}  // namespace

PolicyServer::PolicyServer(serve::PolicyService* service,
                           const PolicyServerConfig& config)
    : service_(service), config_(config) {
  S2R_CHECK(service != nullptr);
  S2R_CHECK(config.num_workers >= 1);
  S2R_CHECK(config.max_pending_connections >= 1);
  S2R_CHECK(config.dispatch_threads >= 1);
  S2R_CHECK(config.max_inflight_per_connection >= 1);
  S2R_CHECK(config.limits.request_timeout_ms > 0);
  S2R_CHECK(config.limits.max_frame_bytes > kFrameHeaderBytes);
}

PolicyServer::~PolicyServer() { Shutdown(); }

bool PolicyServer::Start() {
  S2R_CHECK_MSG(!started_, "PolicyServer::Start called twice");
  if (!listener_.Listen(config_.host, config_.port,
                        config_.max_pending_connections)) {
    S2R_LOG_ERROR("transport: cannot bind %s:%d", config_.host.c_str(),
                  config_.port);
    return false;
  }
  port_ = listener_.port();
  started_ = true;

  accept_thread_ = std::thread([this] { AcceptLoop(); });
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  for (int i = 0; i < config_.dispatch_threads; ++i) {
    dispatchers_.emplace_back([this] { DispatcherLoop(); });
  }
  S2R_LOG_INFO("transport: serving on %s:%d (%d workers, %d dispatchers)",
               config_.host.c_str(), port_, config_.num_workers,
               config_.dispatch_threads);
  return true;
}

void PolicyServer::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (!started_ || shut_down_) return;
  shut_down_ = true;
  {
    // Set under the mutex idle workers wait with: stored outside it,
    // the flag can land between a worker's predicate check and its
    // sleep, and the notify below is then lost — the worker never
    // wakes and the join below never returns.
    std::lock_guard<std::mutex> queue_lock(queue_mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  queue_cv_.notify_all();
  // The accept loop notices stop_ at its next tick (<= ~50ms); only
  // after it joins is the listener closed — closing an fd another
  // thread is polling would race.
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  // Workers drain their connections' in-flight requests before
  // returning, which requires live dispatchers — so those are stopped
  // last.
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  {
    std::lock_guard<std::mutex> dispatch_lock(dispatch_mutex_);
    dispatch_stop_ = true;
  }
  dispatch_cv_.notify_all();
  for (auto& dispatcher : dispatchers_) {
    if (dispatcher.joinable()) dispatcher.join();
  }
  std::lock_guard<std::mutex> queue_lock(queue_mutex_);
  pending_.clear();
}

PolicyServerStats PolicyServer::stats() const {
  PolicyServerStats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.dispatched_requests =
      dispatched_requests_.load(std::memory_order_relaxed);
  stats.malformed_frames =
      malformed_frames_.load(std::memory_order_relaxed);
  stats.errors_sent = errors_sent_.load(std::memory_order_relaxed);
  stats.timeouts = timeouts_.load(std::memory_order_relaxed);
  return stats;
}

void PolicyServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    IoStatus status = IoStatus::kOk;
    TcpConnection conn = listener_.Accept(kIdleTickMs, &status);
    if (status == IoStatus::kTimeout) continue;
    if (!conn.valid()) {
      // Listener closed (shutdown) or broken; either way, stop.
      if (!stop_.load(std::memory_order_relaxed)) {
        S2R_LOG_ERROR("transport: accept failed, stopping accept loop");
      }
      return;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    S2R_COUNT("transport.connections", 1);
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (pending_.size() >=
          static_cast<size_t>(config_.max_pending_connections)) {
        // Refuse rather than queue unboundedly; the closed socket is
        // the backpressure signal.
        connections_rejected_.fetch_add(1, std::memory_order_relaxed);
        S2R_COUNT("transport.rejected_connections", 1);
        continue;  // conn destructor closes it
      }
      pending_.push_back(std::move(conn));
    }
    queue_cv_.notify_one();
  }
}

void PolicyServer::WorkerLoop() {
  for (;;) {
    TcpConnection conn;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_relaxed) || !pending_.empty();
      });
      if (stop_.load(std::memory_order_relaxed)) return;
      conn = std::move(pending_.front());
      pending_.pop_front();
    }
    ServeConnection(&conn);
  }
}

void PolicyServer::DispatcherLoop() {
  for (;;) {
    DispatchTask task;
    {
      std::unique_lock<std::mutex> lock(dispatch_mutex_);
      dispatch_cv_.wait(lock, [this] {
        return dispatch_stop_ || !dispatch_queue_.empty();
      });
      // Drain-then-stop: tasks still queued at shutdown must run (or
      // their readers would wait on inflight forever).
      if (dispatch_queue_.empty()) {
        if (dispatch_stop_) return;
        continue;
      }
      task = std::move(dispatch_queue_.front());
      dispatch_queue_.pop_front();
    }
    const bool ok = HandleFrame(*task.conn, task.header, task.payload);
    if (!ok) {
      // Reply unwritable: poison the connection and kick its reader
      // out of any blocked wait.
      task.conn->broken.store(true, std::memory_order_release);
      task.conn->socket->ShutdownBoth();
    }
    {
      // Notify while still holding mu: the reader destroys ConnState
      // (a stack object) the moment it observes inflight == 0, so an
      // after-unlock notify could touch a dead condvar.
      std::lock_guard<std::mutex> lock(task.conn->mu);
      --task.conn->inflight;
      task.conn->cv.notify_all();
    }
  }
}

void PolicyServer::ServeConnection(TcpConnection* socket) {
  ConnState conn;
  conn.socket = socket;
  uint8_t header[kFrameHeaderBytes];
  // Set when the reader gives up on the stream with something to tell
  // the peer first (framing lost, or a frame of another version).
  WireError close_error = WireError::kNone;
  const char* close_reason = nullptr;

  while (!stop_.load(std::memory_order_relaxed) &&
         !conn.broken.load(std::memory_order_acquire)) {
    // Idle tick: wait for the next request without holding a deadline
    // against a client that simply has nothing to ask yet.
    const IoStatus readable = socket->WaitReadable(kIdleTickMs);
    if (readable == IoStatus::kTimeout) continue;
    if (readable != IoStatus::kOk) break;

    // Bytes are flowing: the rest of the request runs on the deadline.
    const IoStatus header_status = socket->ReadFull(
        header, kFramePrefixBytes, config_.limits.request_timeout_ms);
    if (header_status == IoStatus::kClosed) break;  // orderly hangup
    if (header_status != IoStatus::kOk) {
      // Truncated header / mid-stream disconnect / timeout.
      if (header_status == IoStatus::kTimeout) {
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        S2R_COUNT("transport.timeouts", 1);
      }
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      S2R_COUNT("transport.malformed_frames", 1);
      break;
    }

    FrameHeader frame;
    const HeaderStatus decoded =
        DecodeHeader(header, config_.limits.max_frame_bytes, &frame);
    if (decoded == HeaderStatus::kUnsupportedVersion) {
      // Intact as far as we can tell, but another version's header
      // length is unknown, so the next frame cannot be found: refuse
      // and close without reading on (or waiting for) any more bytes.
      close_error = WireError::kUnsupportedVersion;
      close_reason = "protocol version is not 3";
      break;
    }
    if (decoded != HeaderStatus::kOk) {
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      S2R_COUNT("transport.malformed_frames", 1);
      close_error = WireError::kMalformedFrame;
      close_reason = decoded == HeaderStatus::kBadMagic ? "bad magic"
                                                        : "frame too large";
      break;  // framing lost; the stream cannot be trusted again
    }

    const IoStatus id_status =
        socket->ReadFull(header + kFramePrefixBytes, kRequestIdBytes,
                         config_.limits.request_timeout_ms);
    if (id_status != IoStatus::kOk) {
      if (id_status == IoStatus::kTimeout) {
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        S2R_COUNT("transport.timeouts", 1);
      }
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      S2R_COUNT("transport.malformed_frames", 1);
      break;
    }
    DecodeRequestId(header + kFramePrefixBytes, &frame);

    std::string payload(frame.payload_len, '\0');
    if (frame.payload_len > 0) {
      const IoStatus payload_status =
          socket->ReadFull(payload.data(), payload.size(),
                           config_.limits.request_timeout_ms);
      if (payload_status != IoStatus::kOk) {
        if (payload_status == IoStatus::kTimeout) {
          timeouts_.fetch_add(1, std::memory_order_relaxed);
          S2R_COUNT("transport.timeouts", 1);
        }
        malformed_frames_.fetch_add(1, std::memory_order_relaxed);
        S2R_COUNT("transport.malformed_frames", 1);
        break;
      }
    }

    if (!FrameCrcMatches(header, payload)) {
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      S2R_COUNT("transport.malformed_frames", 1);
      close_error = WireError::kMalformedFrame;
      close_reason = "crc mismatch";
      break;  // bytes corrupted in flight; close
    }

    // Hand the request to the dispatch pool and go straight back to
    // reading, so several requests from this one connection can sit
    // inside the micro-batcher together. The inflight cap is the
    // per-connection backpressure valve.
    {
      std::unique_lock<std::mutex> lock(conn.mu);
      conn.cv.wait(lock, [this, &conn] {
        return conn.inflight < config_.max_inflight_per_connection ||
               conn.broken.load(std::memory_order_acquire) ||
               stop_.load(std::memory_order_relaxed);
      });
      if (conn.broken.load(std::memory_order_acquire)) break;
      ++conn.inflight;
    }
    dispatched_requests_.fetch_add(1, std::memory_order_relaxed);
    S2R_COUNT("transport.dispatched_requests", 1);
    {
      std::lock_guard<std::mutex> lock(dispatch_mutex_);
      dispatch_queue_.push_back(
          DispatchTask{&conn, frame, std::move(payload)});
    }
    dispatch_cv_.notify_one();
  }

  // The reader is done with the socket, but dispatched requests still
  // hold pointers to `conn` and the socket: drain before unwinding.
  {
    std::unique_lock<std::mutex> lock(conn.mu);
    conn.cv.wait(lock, [&conn] { return conn.inflight == 0; });
  }
  if (close_error != WireError::kNone &&
      !conn.broken.load(std::memory_order_acquire)) {
    // Best-effort diagnostic after the pipeline drained (a poisoned
    // frame must not interleave with in-flight replies).
    SendError(conn, close_error, close_reason, 0);
  }
}

bool PolicyServer::HandleFrame(ConnState& conn, const FrameHeader& header,
                               const std::string& payload) {
  S2R_TRACE_SPAN("transport/request", "type",
                 static_cast<double>(static_cast<uint8_t>(header.type)),
                 "bytes", static_cast<double>(payload.size()));
  requests_.fetch_add(1, std::memory_order_relaxed);
  S2R_COUNT("transport.requests", 1);
  S2R_HISTOGRAM("transport.request_bytes",
                static_cast<double>(kFrameHeaderBytes + payload.size()));
  const double start_us = obs::MonotonicMicros();

  // The request id rides back on every reply (typed errors included):
  // it is the multiplexing key.
  const uint64_t id = header.request_id;

  uint64_t trace_id = 0;  // nonzero once an Act request carried one

  bool ok = true;
  switch (header.type) {
    case MessageType::kActRequest: {
      uint64_t user_id = 0;
      nn::Tensor obs;
      if (!DecodeActRequest(payload, &user_id, &trace_id, &obs) ||
          obs.rows() != 1 || obs.cols() < 1) {
        SendError(conn, WireError::kBadPayload, "bad act request", id);
        return true;
      }
      // The client's trace id becomes this thread's current trace id
      // for the whole handling window: the span below and every
      // exemplar recorded beneath service_->Act stamp it, which is
      // what lets a client-observed slow request resolve to the
      // server-side work that caused it.
      obs::TraceIdScope trace_scope(trace_id);
      serve::ServeReply reply;
      try {
        S2R_TRACE_SPAN("transport/act", "user",
                       static_cast<double>(user_id));
        reply = service_->Act(user_id, obs);
      } catch (const std::invalid_argument& e) {
        // Well-framed but the wrong observation width for this policy:
        // the request's fault, not the server's.
        SendError(conn, WireError::kBadPayload, e.what(), id);
        return true;
      } catch (const std::exception& e) {
        // A throwing backend (fault injection, transient shard trouble)
        // fails this request only: typed error frame, connection — and
        // every other session on it — survives.
        SendError(conn, WireError::kInternal, e.what(), id);
        return true;
      }
      ok = SendFrame(conn, MessageType::kActReply, EncodeActReply(reply), id);
      break;
    }
    case MessageType::kEndSessionRequest: {
      uint64_t user_id = 0;
      if (!DecodeU64(payload, &user_id)) {
        SendError(conn, WireError::kBadPayload, "bad end-session request",
                  id);
        return true;
      }
      try {
        service_->EndSession(user_id);
      } catch (const std::exception& e) {
        SendError(conn, WireError::kInternal, e.what(), id);
        return true;
      }
      ok = SendFrame(conn, MessageType::kEndSessionReply, std::string(), id);
      break;
    }
    case MessageType::kPingRequest: {
      uint64_t nonce = 0;
      if (!DecodeU64(payload, &nonce)) {
        SendError(conn, WireError::kBadPayload, "bad ping request", id);
        return true;
      }
      ok = SendFrame(conn, MessageType::kPingReply,
                     EncodePingReply(nonce, kProtocolVersion), id);
      break;
    }
    case MessageType::kMetricsRequest: {
      if (!payload.empty()) {
        SendError(conn, WireError::kBadPayload, "bad metrics request", id);
        return true;
      }
      if (!config_.metrics_source) {
        SendError(conn, WireError::kUnavailable, "no metrics source", id);
        return true;
      }
      ok = SendFrame(conn, MessageType::kMetricsReply,
                     obs::EncodeSnapshot(config_.metrics_source()), id);
      break;
    }
    default:
      // Forward compatibility: a type from the future is an intact
      // request this binary cannot serve; say so and keep going.
      SendError(conn, WireError::kUnsupportedType, "unknown message type",
                id);
      return true;
  }
  S2R_HISTOGRAM_EX("transport.request_us",
                   obs::MonotonicMicros() - start_us, trace_id, "type",
                   static_cast<double>(static_cast<uint8_t>(header.type)),
                   "bytes", static_cast<double>(payload.size()));
  return ok;
}

bool PolicyServer::SendFrame(ConnState& conn, MessageType type,
                             const std::string& payload,
                             uint64_t request_id) {
  const std::string frame =
      EncodeFrame(type, payload, /*flags=*/0, request_id);
  IoStatus status;
  {
    // Dispatchers finish in completion order; the write mutex keeps
    // their reply frames from interleaving on the byte stream.
    std::lock_guard<std::mutex> lock(conn.write_mutex);
    status = conn.socket->WriteFull(frame.data(), frame.size(),
                                    config_.limits.request_timeout_ms);
  }
  if (status == IoStatus::kTimeout) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    S2R_COUNT("transport.timeouts", 1);
  }
  S2R_COUNT("transport.bytes_written", static_cast<int64_t>(frame.size()));
  return status == IoStatus::kOk;
}

bool PolicyServer::SendError(ConnState& conn, WireError code,
                             const char* message, uint64_t request_id) {
  errors_sent_.fetch_add(1, std::memory_order_relaxed);
  S2R_COUNT("transport.errors_sent", 1);
  return SendFrame(conn, MessageType::kError, EncodeError(code, message),
                   request_id);
}

}  // namespace transport
}  // namespace sim2rec
