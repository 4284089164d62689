#ifndef SIM2REC_LOAD_POPULATION_DRIVER_H_
#define SIM2REC_LOAD_POPULATION_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/thread_pool.h"
#include "load/arrival.h"
#include "load/zipf.h"
#include "obs/metrics.h"
#include "serve/policy_service.h"
#include "util/rng.h"

namespace sim2rec {
namespace load {

struct PopulationDriverConfig {
  /// Root seed. Every stochastic choice the driver makes — arrival
  /// counts, user ids, session lengths, think times, observation
  /// payloads — derives from Rng::Substream of this seed, so one seed +
  /// config reproduces the exact request sequence at any num_threads.
  uint64_t seed = 1;

  /// Spawn window: arrivals occur for ticks [0, ticks). The run then
  /// continues for up to drain_ticks more so in-flight sessions can
  /// finish (whatever is still active after that is reported, not lost).
  int ticks = 100;
  int drain_ticks = 0;

  ArrivalConfig arrival;

  /// User-id skew: ids are Zipf(zipf_s)-ranked over [0, user_space), so
  /// hot users hammer a few hash-ring shards the way real traffic does.
  /// zipf_s = 0 gives uniform ids. A sampled id already in an active
  /// session is deterministically rehashed to a free id (one live
  /// session per user — the serving stack's session-affinity
  /// contract). Keep user_space several times the expected peak
  /// population so the rehash terminates in O(1) expected probes.
  double zipf_s = 1.05;
  uint64_t user_space = uint64_t{1} << 20;

  /// Per-session step count, uniform in [min_steps, max_steps].
  int min_steps = 2;
  int max_steps = 8;
  /// Ticks between a session's steps, uniform in [1, 1 + max_think_ticks].
  int max_think_ticks = 2;
  /// Fraction of sessions that finish without EndSession (user walks
  /// away; the server-side session is left for TTL expiry / LRU
  /// eviction — the churn pressure the session store must absorb).
  double abandon_prob = 0.25;

  /// Request shapes; obs_dim must match the served agent.
  int obs_dim = 0;
  int action_dim = 1;

  /// Mix the previous reply's action into the next observation (a true
  /// content closed loop). Off by default: with feedback on, request
  /// bytes depend on replies, so thread-count invariance additionally
  /// requires the service itself to be reply-deterministic under
  /// within-tick reordering (no LRU eviction pressure, TTL disabled,
  /// fixed topology). With feedback off the request sequence is
  /// invariant unconditionally — eviction, expiry and resharding only
  /// change replies, never requests.
  bool obs_feedback = false;

  /// A step whose Act throws TransientFault is retried on the next tick
  /// with the identical observation, up to this many retries; beyond
  /// that the session is aborted (EndSession best-effort) and counted.
  int max_retries_per_step = 2;

  /// Worker threads issuing requests within a tick (the tick boundary
  /// is a barrier, which is what makes the schedule thread-invariant).
  int num_threads = 1;

  /// Hard cap on concurrently active sessions; arrivals beyond it are
  /// rejected and counted. 0 = uncapped.
  uint64_t max_active = 0;

  /// Called after every tick's lifecycle work (autoscaler polls,
  /// mid-run reshards in tests). Runs on the driving thread with no
  /// requests in flight.
  std::function<void(int tick)> tick_hook;
  /// Sampled into the per-tick timeline when set (e.g. router shard
  /// count and summed shard queue depth).
  std::function<int()> shard_count_source;
  std::function<double()> queue_depth_source;

  bool record_timeline = true;
};

/// One row of the per-tick timeline (the shard-count-over-time series
/// BENCH_serve_scale.json plots).
struct TickSample {
  int tick = 0;
  double rate = 0.0;      // shaped arrival rate at this tick
  int arrivals = 0;       // realized spawns
  uint64_t active = 0;    // sessions live after lifecycle work
  uint64_t issued = 0;    // requests attempted this tick
  uint64_t failed = 0;    // of which faulted
  int shards = 0;         // shard_count_source (0 when unset)
  double queue_depth = 0.0;
  double tick_p50_us = 0.0;  // client-observed, this tick only
  double tick_p99_us = 0.0;
};

struct PopulationReport {
  uint64_t sessions_started = 0;
  uint64_t sessions_finished = 0;  // completed all steps
  uint64_t sessions_ended_gracefully = 0;  // finished + EndSession sent
  uint64_t sessions_abandoned = 0;         // finished, no EndSession
  uint64_t sessions_aborted = 0;   // gave up after repeated faults
  uint64_t sessions_active_at_end = 0;
  uint64_t sessions_rejected = 0;  // max_active cap hit
  uint64_t peak_active = 0;

  uint64_t requests_ok = 0;
  uint64_t requests_failed = 0;
  uint64_t retries = 0;
  uint64_t end_session_failures = 0;
  int64_t exec_clamps = 0;

  int ticks_run = 0;
  double elapsed_seconds = 0.0;
  double req_per_sec = 0.0;

  // Client-observed Act latency over the whole run.
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0;
  double mean_us = 0.0, max_us = 0.0;

  /// Order-independent digest over every issued request
  /// (user id, session ordinal, step, observation bits): equal across
  /// thread counts whenever the schedule is — the reproducibility
  /// check bench_serve_scale and tests/load_test.cc assert.
  uint64_t request_checksum = 0;
  /// Same digest over replies (action bits). Thread-invariant only
  /// under the stricter conditions obs_feedback documents.
  uint64_t reply_checksum = 0;

  std::vector<TickSample> timeline;

  /// started == finished + aborted + active_at_end, and
  /// finished == ended_gracefully + abandoned. False means the driver
  /// lost track of a session — the accounting invariant fault-injection
  /// tests pin.
  bool Consistent() const;
};

/// Closed-loop population load generator for any serve::PolicyService —
/// the in-process ServeRouter, a single InferenceServer, or a
/// transport::PolicyClient against a remote server.
///
/// Time advances in ticks. Each tick: (1) the arrival process spawns
/// new sessions with Zipf-skewed user ids; (2) every session whose next
/// step is due gets its observation generated from its own
/// Rng::Substream; (3) worker threads issue all due requests
/// concurrently (closed loop: a session never has two requests in
/// flight, and its next step waits for this reply plus a think-time
/// gap); (4) after the barrier, session lifecycle runs serially —
/// completions, EndSession/abandon churn, fault retries. Because every
/// random draw happens on the driving thread against per-session
/// substreams and workers only execute a prebuilt request list, the
/// request sequence is a pure function of (seed, config) — num_threads
/// changes wall-clock interleaving, never content (request_checksum).
///
/// Faults: a service throwing TransientFault (see FlakyPolicyService)
/// fails that request only; the step retries next tick with the same
/// observation, then the session aborts. Any other exception
/// propagates — the driver only absorbs declared-transient failures.
class PopulationDriver {
 public:
  PopulationDriver(serve::PolicyService* service,
                   const PopulationDriverConfig& config);

  /// Executes the run. Call once.
  PopulationReport Run();

 private:
  struct SessionState {
    uint64_t user_id = 0;
    uint64_t ordinal = 0;  // global spawn index (substream id)
    Rng rng{0};            // per-session draw stream
    bool live = false;
    int steps_left = 0;
    int step_index = 0;    // steps completed so far
    int next_due_tick = 0;
    int retries = 0;
    bool abandon = false;
    bool has_pending_obs = false;
    bool last_ok = false;
    std::vector<double> pending_obs;   // obs_dim, reused across retries
    std::vector<double> prev_action;   // action_dim (feedback mix-in)
  };

  void SpawnArrivals(int tick, Rng& spawn_stream);
  void PrepareObs(SessionState& session);
  /// Finishes or reschedules one session after its due request ran.
  void AdvanceSession(int tick, size_t slot);
  void FinishSession(size_t slot, bool aborted);

  serve::PolicyService* service_;
  PopulationDriverConfig config_;
  ArrivalProcess arrivals_;
  ZipfSampler zipf_;
  std::unique_ptr<core::ThreadPool> pool_;

  std::vector<SessionState> slots_;
  std::vector<size_t> free_slots_;
  std::unordered_map<uint64_t, size_t> active_users_;  // user -> slot
  uint64_t next_ordinal_ = 0;

  PopulationReport report_;
  obs::LogHistogram latency_;
  obs::LogHistogram tick_latency_;
  std::atomic<uint64_t> request_checksum_{0};
  std::atomic<uint64_t> reply_checksum_{0};
  std::atomic<int64_t> exec_clamps_{0};
  bool ran_ = false;
};

}  // namespace load
}  // namespace sim2rec

#endif  // SIM2REC_LOAD_POPULATION_DRIVER_H_
