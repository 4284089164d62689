#ifndef SIM2REC_SERVE_INFERENCE_SERVER_H_
#define SIM2REC_SERVE_INFERENCE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "core/context_agent.h"
#include "infer/plan.h"
#include "obs/metrics.h"
#include "serve/policy_service.h"
#include "serve/session_store.h"

namespace sim2rec {
namespace serve {

class TrajectorySink;

struct InferenceServerConfig {
  /// Batch-when-busy: a request that finds the server idle runs at once
  /// on its caller's thread; requests that arrive while a batch runs
  /// go out together as the next batch, up to `max_batch_size` rows.
  /// Batches form only from real overlap — nothing waits for
  /// stragglers.
  int max_batch_size = 16;

  /// Serving-time F_exec guard (mirrors sim/filters): actions outside
  /// the executable box [low - tolerance, high + tolerance] are clamped
  /// into it and flagged. Empty vectors disable the guard. The *raw*
  /// action is what enters the user's recurrent state (training parity:
  /// the extractor conditioned on unclamped policy outputs; the
  /// training envs clip internally).
  std::vector<double> action_low;
  std::vector<double> action_high;
  double exec_tolerance = 0.02;

  /// Pre-frozen float32 plan to serve from. A ServeRouter freezes the
  /// agent once and hands this same immutable plan to every shard, so N
  /// shards share one copy of the packed weights. Null makes the server
  /// freeze its own plan at construction (aborts if the agent fails
  /// validation — callers wanting a soft failure freeze first with
  /// serve::FreezePlan and check the result themselves).
  std::shared_ptr<const infer::InferencePlan> plan;

  SessionStoreConfig sessions;

  /// Registry this server records its serve.* metrics into. Null means
  /// obs::MetricsRegistry::Global() — the single-server default. A
  /// ServeRouter gives each shard its own registry (standing in for a
  /// per-process registry) so per-shard rates stay separable and the
  /// router can merge them with obs::MergeSnapshots. Must outlive the
  /// server.
  obs::MetricsRegistry* registry = nullptr;
  /// Shard label for trace spans ("shard" arg on serve/batch etc.);
  /// -1 = unsharded.
  int shard_id = -1;

  /// Opt-in trajectory logging: when non-null, every served request
  /// appends its (obs, action, value, step) tuple to this sink from
  /// whichever thread runs its batch (see serve/trajectory_log.h). Null
  /// (the default) records nothing. The sink's owner (TrajectoryLog)
  /// must outlive the server. Determinism-neutral: replies are
  /// bitwise-identical with or without a sink.
  TrajectorySink* trajectory_sink = nullptr;
};

// ServeReply lives in serve/policy_service.h (included above) next to
// the PolicyService interface whose Act returns it.

struct InferenceServerStats {
  int64_t requests = 0;
  int64_t batches = 0;
  /// Requests enqueued but not yet in a batch (instantaneous). The
  /// overload signal the Autoscaler and ops runbook watch.
  int64_t queue_depth = 0;
  double mean_batch_occupancy = 0.0;
  int max_batch = 0;
  int64_t exec_clamps = 0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_mean_us = 0.0;
  double latency_max_us = 0.0;
  SessionStore::Stats sessions;
};

/// Batching policy-serving front end over a checkpointed ContextAgent:
/// Act(user_id, obs) gathers the user's recurrent state from the
/// SessionStore, rides a batched forward through the frozen float32
/// infer::InferencePlan, applies the F_exec guard, commits the advanced
/// state, and returns the action. The plan computes every row
/// independently (each user's SADAE set is their own singleton), so the
/// answers are bitwise-identical to serving every request alone,
/// whatever batch compositions concurrent callers happen to produce.
///
/// Threading: Act() is safe from any number of client threads, and the
/// callers run the batches themselves. One batch runs at a time: a
/// caller that finds no batch running takes up to max_batch_size
/// requests from the front of the queue, runs them outside the lock
/// and wakes their callers; everyone else waits for a running batch to
/// finish, and a waiter whose request is still queued runs the next
/// batch. A lone caller therefore never waits, and commits stay in
/// arrival order. The caller keeps ownership of the agent, which must
/// outlive the server. Requests of a single user are expected to be
/// sequential (session affinity) — concurrent same-user requests stay
/// memory-safe but race on the session state, last commit wins.
class InferenceServer : public PolicyService {
 public:
  InferenceServer(const core::ContextAgent* agent,
                  const InferenceServerConfig& config);
  ~InferenceServer() override;

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Serves one observation for one user; blocks until the reply is
  /// computed. Throws std::invalid_argument, before queueing anything,
  /// unless `obs` is [1 x obs_dim].
  ServeReply Act(uint64_t user_id, const nn::Tensor& obs) override;

  /// Ends a user's session (drops stored recurrent state).
  void EndSession(uint64_t user_id) override;

  /// Refuses further requests and waits until every queued request has
  /// been served and no batch runs. Called by the destructor;
  /// idempotent. Act() after Shutdown() is a checked error.
  void Shutdown();

  /// Atomically replaces the served model while keeping every resident
  /// session. The caller must guarantee no Act() is in flight on this
  /// server (a ServeRouter calls this under its exclusive drain
  /// barrier). Returns false — changing nothing — when the new agent is
  /// session-incompatible (different SessionDims or obs_dim: resident
  /// recurrent state would be shape-invalid) or `plan`, the float32
  /// plan frozen from `agent`, is null. `agent` must outlive the
  /// server.
  bool SwapModel(const core::ContextAgent* agent,
                 std::shared_ptr<const infer::InferencePlan> plan);

  InferenceServerStats stats() const;
  SessionStore& sessions() { return *store_; }
  const core::ContextAgent& agent() const { return *agent_; }
  /// The frozen plan this server forwards through. Shards of one router
  /// return the same pointer.
  const infer::InferencePlan* plan() const { return plan_.get(); }
  /// Shared ownership of the same — lets a hot-swap observer keep a
  /// superseded plan alive so before/after pointer comparisons can't be
  /// confused by allocator address reuse. Call only with no swap in
  /// flight (e.g. a driver tick hook).
  std::shared_ptr<const infer::InferencePlan> plan_handle() const {
    return plan_;
  }

 private:
  struct Pending {
    uint64_t user_id = 0;
    const nn::Tensor* obs = nullptr;
    std::chrono::steady_clock::time_point enqueued;
    /// Caller's obs::CurrentTraceId() captured at Act() entry — the
    /// thread that runs the batch records the latency exemplar, so the
    /// id must travel with the request, not sit in a thread-local.
    uint64_t trace_id = 0;
    ServeReply reply;
    bool done = false;
    /// Wakes this request's caller: its reply is ready, or its request
    /// is now the oldest queued one and no batch runs, so the caller
    /// runs the next batch. Signalled only under mutex_.
    std::condition_variable wake;
  };

  /// Takes up to max_batch_size requests from the front of the queue,
  /// runs them outside `lock` and wakes their callers. `self` is the
  /// running caller's own request. Caller holds `lock` on mutex_ with
  /// no batch running; holds it again on return.
  void RunNextBatch(std::unique_lock<std::mutex>& lock, const Pending& self);
  /// Runs one batch end-to-end (gather, forward, guard, commit) and
  /// fills each request's reply. Does not signal waiters. Nothing in it
  /// throws by design; an allocation failure terminates rather than
  /// leave the server marked busy forever.
  void ProcessBatch(const std::vector<Pending*>& batch) noexcept;
  int64_t NowMs() const;

  const core::ContextAgent* agent_;
  InferenceServerConfig config_;
  std::unique_ptr<SessionStore> store_;
  // Immutable shared plan + this server's private workspace. Only the
  // thread running the current batch touches the workspace, the
  // store's arrival-order LRU bookkeeping and the trajectory sink; the
  // next runner takes them over under mutex_ (see batch_running_).
  std::shared_ptr<const infer::InferencePlan> plan_;
  std::unique_ptr<infer::Workspace> workspace_;

  std::mutex mutex_;
  std::condition_variable drained_cv_;  // Shutdown waits for the drain
  std::deque<Pending*> queue_;
  bool batch_running_ = false;
  bool stop_ = false;

  // What stats() reports: per-request latency (us) and rows per batch
  // (count = batches, sum = requests). Recorded whatever obs::Enabled()
  // says; only the registry mirror below is gated. The mirror cannot
  // stand in for these: lone servers share MetricsRegistry::Global().
  obs::LogHistogram latency_us_;
  obs::LogHistogram batch_rows_;
  std::atomic<int64_t> exec_clamps_{0};
  // Lock-free mirror of queue_.size() so stats() and the autoscaler
  // never touch the batching mutex.
  std::atomic<int64_t> queue_depth_{0};

  // serve.* metrics resolved once at construction against the
  // configured registry (per-shard when routed, Global otherwise); the
  // hot path records through cached pointers, never a name lookup.
  obs::Counter* metric_requests_ = nullptr;
  obs::Counter* metric_batches_ = nullptr;
  obs::Counter* metric_exec_clamps_ = nullptr;
  obs::LogHistogram* metric_latency_us_ = nullptr;
  obs::LogHistogram* metric_batch_occupancy_ = nullptr;
  obs::Gauge* metric_queue_depth_ = nullptr;

  std::chrono::steady_clock::time_point epoch_;
};

/// Derives the session-state shapes the store needs from an agent.
SessionDims SessionDimsFor(const core::ContextAgent& agent);

}  // namespace serve
}  // namespace sim2rec

#endif  // SIM2REC_SERVE_INFERENCE_SERVER_H_
