#ifndef SIM2REC_TRANSPORT_POLICY_SERVER_H_
#define SIM2REC_TRANSPORT_POLICY_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/policy_service.h"
#include "transport/limits.h"
#include "transport/socket.h"
#include "transport/wire.h"

namespace sim2rec {
namespace transport {

struct PolicyServerConfig {
  /// Numeric IPv4 address to bind; loopback by default (the serving
  /// tier fronts shards on the same host or behind its own LB).
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port, readable from port() after Start().
  int port = 0;

  /// Connection-reading worker threads. Each worker owns one
  /// connection at a time (it reads frames and hands each request to
  /// the dispatch pool), so this is also the number of clients served
  /// concurrently; size it at least to the expected client count. The
  /// batching InferenceServer behind the transport is what coalesces
  /// concurrency, so a handful of workers front a much larger user
  /// population.
  int num_workers = 4;
  /// Accepted connections waiting for a free worker. Beyond this the
  /// accept loop closes new connections immediately (graceful
  /// degradation: refuse, never queue unboundedly).
  int max_pending_connections = 64;

  /// Threads executing dispatched requests, shared across all
  /// connections. They are what lets one pipelined connection have
  /// several Acts inside the batching server at once.
  int dispatch_threads = 4;
  /// Per-connection cap on dispatched-but-unanswered requests. The
  /// reader stops pulling frames off a connection that has this many
  /// in flight — TCP pushes the backpressure to the client, bounding
  /// server memory per connection.
  int max_inflight_per_connection = 32;

  /// Framing and deadline bounds shared with the client and the HTTP
  /// endpoint (transport/limits.h): request_timeout_ms is the budget
  /// from the first header byte of a request to its reply being fully
  /// written; max_frame_bytes rejects oversized frames before any
  /// payload allocation. connect_timeout_ms is client-side only and
  /// ignored here.
  Limits limits;

  /// Answers kMetricsRequest frames. Unset, the server replies
  /// kUnavailable. Typical wiring merges the fronted service's view
  /// with the process registry:
  ///   config.metrics_source = [&] {
  ///     return obs::MergeSnapshots(
  ///         {router.MergedMetrics(),
  ///          obs::MetricsRegistry::Global().Snapshot()});
  ///   };
  std::function<obs::MetricsSnapshot()> metrics_source;
};

struct PolicyServerStats {
  int64_t connections_accepted = 0;
  int64_t connections_rejected = 0;  // pending queue full
  int64_t requests = 0;              // well-formed frames handled
  int64_t dispatched_requests = 0;   // frames run on the dispatch pool
  int64_t malformed_frames = 0;      // bad magic / oversized / CRC
  int64_t errors_sent = 0;           // kError frames written
  int64_t timeouts = 0;              // request deadlines missed
};

/// Blocking front end for any serve::PolicyService — an
/// InferenceServer or a ServeRouter — speaking the framed protocol in
/// transport/wire (documented byte-by-byte in docs/PROTOCOL.md) over
/// TCP connections.
///
/// Threading: one accept thread, num_workers connection readers and
/// dispatch_threads request executors.
/// A reader decodes frames and enqueues each request to the dispatch
/// pool, so several requests from ONE connection can be inside the
/// service concurrently, with replies written as they finish — tagged
/// with the request id, in whatever order they complete. The fronted
/// service must be thread-safe for concurrent Act/EndSession — both
/// PolicyService implementations are — and must outlive the server.
///
/// Degradation: malformed frames (bad magic, oversized length, CRC
/// mismatch) and frames of any version but kProtocolVersion are
/// answered with a best-effort kError frame (kMalformedFrame /
/// kUnsupportedVersion) and the connection is closed after in-flight
/// requests drain — a byte stream whose framing failed or whose header
/// length is unknown cannot be resynchronized — but the server itself
/// never aborts and other connections are unaffected. Well-framed but
/// unintelligible requests (unknown type, undecodable payload, an
/// observation of the wrong width for the served policy) get a kError
/// reply and the connection stays usable.
///
/// Shutdown: Start()/Shutdown() bracket the serving window. Shutdown
/// stops accepting, lets every in-flight request finish and its reply
/// drain, then closes connections and joins all threads (idle
/// connections are noticed at the next idle tick, <= ~50ms). Called by
/// the destructor; idempotent.
class PolicyServer {
 public:
  PolicyServer(serve::PolicyService* service,
               const PolicyServerConfig& config);
  ~PolicyServer();

  PolicyServer(const PolicyServer&) = delete;
  PolicyServer& operator=(const PolicyServer&) = delete;

  /// Binds, listens and spawns all threads. False when the address
  /// cannot be bound, the port included (config.port outside
  /// [0, 65535]). Must be called at most once.
  bool Start();

  /// Drains in-flight requests, closes every connection and joins all
  /// threads. Idempotent.
  void Shutdown();

  /// The bound port (resolves config.port == 0), valid after Start().
  int port() const { return port_; }

  PolicyServerStats stats() const;

 private:
  /// Per-connection state shared between the reader and the dispatch
  /// pool. The write mutex serializes reply frames from concurrent
  /// dispatchers; inflight/cv implement both the backpressure cap and
  /// the drain-before-close barrier.
  struct ConnState {
    TcpConnection* socket = nullptr;
    std::mutex write_mutex;
    std::mutex mu;
    std::condition_variable cv;
    int inflight = 0;                // guarded by mu
    std::atomic<bool> broken{false};  // reply unwritable; stop reading
  };

  struct DispatchTask {
    ConnState* conn = nullptr;
    FrameHeader header;
    std::string payload;
  };

  void AcceptLoop();
  void WorkerLoop();
  void DispatcherLoop();
  /// Reads frames off one connection until hangup, framing loss or
  /// shutdown; waits for in-flight dispatched requests to drain before
  /// returning.
  void ServeConnection(TcpConnection* socket);
  /// Handles one well-framed message on a dispatcher thread. Returns
  /// false when the connection must close (reply unwritable).
  bool HandleFrame(ConnState& conn, const FrameHeader& header,
                   const std::string& payload);
  /// `request_id` is the id of the request being answered.
  bool SendFrame(ConnState& conn, MessageType type,
                 const std::string& payload, uint64_t request_id);
  bool SendError(ConnState& conn, WireError code, const char* message,
                 uint64_t request_id);

  serve::PolicyService* service_;
  PolicyServerConfig config_;
  int port_ = 0;

  TcpListener listener_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool shut_down_ = false;      // guarded by shutdown_mutex_
  std::mutex shutdown_mutex_;   // serializes Shutdown vs. ~PolicyServer

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<TcpConnection> pending_;  // guarded by queue_mutex_

  std::vector<std::thread> dispatchers_;
  std::mutex dispatch_mutex_;
  std::condition_variable dispatch_cv_;
  std::deque<DispatchTask> dispatch_queue_;  // guarded by dispatch_mutex_
  bool dispatch_stop_ = false;               // guarded by dispatch_mutex_

  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> connections_rejected_{0};
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> dispatched_requests_{0};
  std::atomic<int64_t> malformed_frames_{0};
  std::atomic<int64_t> errors_sent_{0};
  std::atomic<int64_t> timeouts_{0};
};

}  // namespace transport
}  // namespace sim2rec

#endif  // SIM2REC_TRANSPORT_POLICY_SERVER_H_
