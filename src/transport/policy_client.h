#ifndef SIM2REC_TRANSPORT_POLICY_CLIENT_H_
#define SIM2REC_TRANSPORT_POLICY_CLIENT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "serve/policy_service.h"
#include "transport/limits.h"
#include "transport/socket.h"
#include "transport/wire.h"

namespace sim2rec {
namespace transport {

struct PolicyClientConfig {
  /// The server to dial: a numeric IPv4 address and a port. A port
  /// below 1 fails the constructor's check; one above 65535 fails to
  /// connect with kConnectFailed.
  std::string host = "127.0.0.1";
  int port = 0;

  /// Framing and deadline bounds shared with the server
  /// (transport/limits.h): connect_timeout_ms bounds the TCP connect,
  /// request_timeout_ms is the default per-request deadline (write +
  /// server + read), max_frame_bytes rejects oversized reply frames
  /// before any payload allocation.
  Limits limits;

  /// Retry budget for *idempotent* requests only — Ping and
  /// FetchMetrics. Act/EndSession are never retried automatically: a
  /// lost reply does not prove the request was lost, and replaying an
  /// applied Act would advance the user's recurrent session twice.
  int max_retries = 3;
  /// Exponential backoff between retries, doubling from initial to
  /// max. Deliberately jitter-free: transport code never touches an
  /// Rng (the observability determinism rule applies here too).
  int retry_backoff_initial_ms = 10;
  int retry_backoff_max_ms = 500;
};

struct PolicyClientStats {
  int64_t requests = 0;
  int64_t reconnects = 0;
  int64_t retries = 0;
  int64_t remote_errors = 0;  // kError frames received
  int64_t timeouts = 0;       // per-request deadlines missed
};

/// Client side of the serving transport. Implements
/// serve::PolicyService, so everything written against the in-process
/// interface — tests, benches, the closed-loop examples — runs
/// unchanged with the policy on the other side of a socket.
///
/// Three API levels:
///  * The PolicyService facade (Act / EndSession) assumes a healthy
///    server, matching the in-process implementations it stands in
///    for; a transport failure is fatal there (S2R_CHECK) because the
///    interface has no error channel and inventing a fake reply would
///    silently corrupt a replay.
///  * Try* / Ping / FetchMetrics return a TransportStatus — the typed
///    error surface operational callers use — and block for one
///    request at a time. They are thin wrappers over the async tier.
///  * SubmitAct / Await / AwaitAll — the pipelined tier. SubmitAct
///    writes the request and returns immediately with a handle;
///    several submissions ride the ONE connection concurrently
///    (every frame carries a request id, so replies may return in any
///    order), which is what lets a single client fill the server's
///    micro-batcher. Await blocks until that handle's reply arrives or
///    its deadline passes and yields a typed TransportStatus per
///    handle.
///
/// Deadlines: every request gets config.limits.request_timeout_ms by
/// default; SubmitAct takes an optional per-request override. The
/// deadline clock starts at submission and is enforced by Await. A
/// timed-out request is abandoned: its late reply is recognized by id
/// and dropped, and the connection lives on.
///
/// Version: the client speaks kProtocolVersion only. A reply frame of
/// any other version fails every in-flight request with
/// kMalformedReply (its header length is unknown, so the stream cannot
/// be followed).
///
/// Reconnect semantics: the connection is opened lazily on first use
/// and reopened transparently on the NEXT call after an error. When a
/// connection dies, every in-flight request completes with kClosed —
/// never a silent resubmit, because Act is not idempotent: the server
/// may have applied a request whose reply was lost, and replaying it
/// would advance that user's recurrent session state twice. Callers
/// that can prove idempotency retry above this API; Ping/FetchMetrics
/// do exactly that internally.
///
/// Replies carry raw IEEE-754 bytes, so an action decoded here is
/// bitwise-identical to the one the in-process service produced
/// (pinned by tests/transport_test.cc).
///
/// Threading: safe from any number of threads. Submissions share one
/// connection; a dedicated receiver thread completes handles as reply
/// frames arrive. Await may be called from any thread, including a
/// different one than SubmitAct.
class PolicyClient : public serve::PolicyService {
 public:
  /// Completion handle for one submitted request. Value-type, copyable;
  /// redeemable exactly once via Await (a second Await on the same
  /// handle, or on a default-constructed one, returns kInvalidHandle).
  struct ActHandle {
    uint64_t id = 0;
    bool valid() const { return id != 0; }
  };

  /// One completed submission: the typed status plus, when kOk, the
  /// decoded reply.
  struct ActResult {
    TransportStatus status = TransportStatus::kClosed;
    serve::ServeReply reply;
  };

  explicit PolicyClient(const PolicyClientConfig& config);
  ~PolicyClient() override;

  PolicyClient(const PolicyClient&) = delete;
  PolicyClient& operator=(const PolicyClient&) = delete;

  // PolicyService facade — aborts on transport failure (see above).
  serve::ServeReply Act(uint64_t user_id, const nn::Tensor& obs) override;
  void EndSession(uint64_t user_id) override;

  // Async tier.
  /// Submits an Act without waiting for the reply. Never blocks on the
  /// server's compute, only on the outbound write. Transport failures
  /// (connect refused, write timeout) surface when the handle is
  /// awaited, so submission loops stay branch-free.
  /// `deadline_ms` overrides config.limits.request_timeout_ms for this
  /// request; 0 means use the default.
  ActHandle SubmitAct(uint64_t user_id, const nn::Tensor& obs,
                      int deadline_ms = 0);
  /// Blocks until the handle's reply arrives or its deadline passes.
  /// kOk fills *reply; kTimeout abandons the request (a late reply is
  /// dropped, the connection survives); kClosed means
  /// the connection died with the request in flight — the request may
  /// or may not have been applied server-side, and it is NOT retried
  /// (see reconnect semantics above). kInvalidHandle: unknown or
  /// already-awaited handle.
  TransportStatus Await(ActHandle handle, serve::ServeReply* reply);
  /// Awaits every handle; results align index-for-index with `handles`.
  std::vector<ActResult> AwaitAll(const std::vector<ActHandle>& handles);

  // Typed-error synchronous API (submit + await under the hood).
  TransportStatus TryAct(uint64_t user_id, const nn::Tensor& obs,
                         serve::ServeReply* reply);
  TransportStatus TryEndSession(uint64_t user_id);
  /// Idempotent liveness probe; retried with exponential backoff. On
  /// success `server_version` (when non-null) holds the server's
  /// protocol version.
  TransportStatus Ping(uint8_t* server_version = nullptr);
  /// Fetches the server's metrics snapshot (the cross-process
  /// aggregation leg: merge it with local snapshots via
  /// obs::MergeSnapshots). Idempotent; retried with backoff.
  TransportStatus FetchMetrics(obs::MetricsSnapshot* snapshot);

  /// Eagerly opens the connection (otherwise the first request does).
  TransportStatus Connect();
  void Close();

  /// Details of the last kRemoteError reply.
  WireError last_remote_error() const;
  std::string last_remote_message() const;

  PolicyClientStats stats() const;

 private:
  struct Pending {
    MessageType expected = MessageType::kActReply;
    MessageType type = MessageType::kActRequest;  // what was sent
    double submit_us = 0.0;  // MonotonicMicros at Submit
    bool done = false;
    TransportStatus status = TransportStatus::kClosed;
    std::string payload;  // reply payload when status == kOk
    WireError remote_code = WireError::kNone;
    std::string remote_message;
    std::chrono::steady_clock::time_point deadline{};  // absolute
  };

  /// Registers + writes one request frame; returns the handle id (the
  /// pending entry carries any immediate failure).
  uint64_t Submit(MessageType type, const std::string& payload,
                  MessageType expected_reply, int deadline_ms);
  /// Blocks on a pending entry; on success moves the raw reply payload
  /// out. Shared by Await and the synchronous tier.
  TransportStatus AwaitPayload(uint64_t id, std::string* payload);
  /// Submit+await wrapped in the idempotent retry/backoff loop.
  TransportStatus RetryingRoundTrip(MessageType request_type,
                                    const std::string& request_payload,
                                    MessageType expected_reply,
                                    std::string* reply_payload);

  TransportStatus EnsureConnected();
  /// Connects and starts the receiver. Caller holds conn_mutex_.
  TransportStatus ConnectLocked();
  /// Fails every pending request (kClosed), marks the connection dead
  /// and wakes the receiver. `this_id` (when nonzero) gets
  /// `this_status` instead of kClosed.
  void Poison(uint64_t this_id, TransportStatus this_status);
  void ReceiverLoop(std::shared_ptr<TcpConnection> socket);

  PolicyClientConfig config_;

  /// Connection state. conn_mutex_ guards socket replacement; writers
  /// snapshot the shared_ptr so a racing Close can never free a socket
  /// mid-write.
  mutable std::mutex conn_mutex_;
  std::shared_ptr<TcpConnection> socket_;  // guarded by conn_mutex_
  std::thread rx_thread_;                  // guarded by conn_mutex_
  std::atomic<bool> conn_dead_{true};

  /// Outbound frame writes are serialized separately from the pending
  /// map: a writer blocked on a full socket buffer must not hold the
  /// lock the receiver needs to complete replies (that way lies
  /// deadlock, with the server unable to drain because we cannot read).
  std::mutex write_mutex_;

  /// Pending-request state, keyed by request id.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, Pending> pending_;     // guarded by mu_
  std::unordered_set<uint64_t> abandoned_;  // timed-out ids, guarded by mu_
  WireError last_error_ = WireError::kNone;      // guarded by mu_
  std::string last_error_message_;               // guarded by mu_

  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> ping_nonce_{1};

  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> reconnects_{0};
  std::atomic<int64_t> retries_{0};
  std::atomic<int64_t> remote_errors_{0};
  std::atomic<int64_t> timeouts_{0};
};

}  // namespace transport
}  // namespace sim2rec

#endif  // SIM2REC_TRANSPORT_POLICY_CLIENT_H_
