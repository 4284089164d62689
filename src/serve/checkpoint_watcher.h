#ifndef SIM2REC_SERVE_CHECKPOINT_WATCHER_H_
#define SIM2REC_SERVE_CHECKPOINT_WATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/serve_router.h"

namespace sim2rec {
namespace serve {

struct CheckpointWatcherConfig {
  /// Directory whose immediate subdirectories are checkpoint bundles,
  /// e.g. `dir/gen-000002/manifest.txt`. A publisher writes each one
  /// with serve::SaveCheckpoint and a metadata.generation above the
  /// last; the staged manifest rename makes the publish atomic.
  std::string dir;
  /// Background poll cadence for Start(); PollOnce() ignores it.
  int poll_interval_ms = 1000;
  /// Generation the router is serving at construction time (bundles at
  /// or below it are never candidates). 0 when the initial model did
  /// not come from a generation sequence.
  uint64_t initial_generation = 0;
  /// Home of the serve.checkpoint_generation gauge and the
  /// serve.checkpoint_swaps / serve.checkpoint_rejects counters. Null =
  /// obs::MetricsRegistry::Global(). Process-level, deliberately NOT a
  /// per-shard registry: the generation is a property of the whole
  /// router.
  obs::MetricsRegistry* registry = nullptr;
};

/// What one poll did. Every outcome except kSwapped leaves serving
/// untouched on the old model — the rollback path is "do nothing",
/// which the drain-barrier swap makes trivially safe.
enum class SwapOutcome {
  /// No un-rejected bundle with a generation above the current one.
  kNoCandidate = 0,
  /// The router is now serving the candidate generation.
  kSwapped,
  /// LoadCheckpointEx refused the candidate (SwapResult::load_status
  /// says why: corrupt, unsupported version, vanished directory).
  kLoadFailed,
  /// The bundle loaded but InferencePlan::Freeze rejected its
  /// parameters (non-finite, float32 overflow, shape drift). The old
  /// plan keeps serving.
  kFreezeFailed,
  /// ServeRouter::SwapModel refused: the candidate's session dims or
  /// obs_dim differ from the resident sessions' — swapping would
  /// invalidate live recurrent state, so it never happens.
  kIncompatible,
};

const char* SwapOutcomeName(SwapOutcome outcome);

struct SwapResult {
  SwapOutcome outcome = SwapOutcome::kNoCandidate;
  /// Candidate generation / bundle directory (unset when kNoCandidate).
  uint64_t generation = 0;
  std::string dir;
  /// Detail for kLoadFailed; kOk otherwise.
  LoadStatus load_status = LoadStatus::kOk;
};

/// Closes the train->serve loop: polls a directory for new checkpoint
/// generations, validates each candidate end to end (LoadCheckpointEx
/// integrity + config checks, then the float32 freeze every shard
/// serves from), and hot-swaps the router's model under its exclusive
/// drain barrier — every resident session survives, including on
/// shards the autoscaler adds later (they inherit the swapped plan).
///
/// Ordering: generations are monotonic. The watcher only ever swaps to
/// a generation strictly above the one it is serving, and among
/// candidates it always picks the highest — rolling *back* a bad
/// generation N means exporting its predecessor's weights as N+1.
///
/// Failure policy: a candidate that fails anywhere (load, freeze,
/// compatibility) is remembered by (directory, generation) and never
/// retried — re-export under a new generation instead. Serving is
/// untouched by failed candidates; the only observable effect is the
/// serve.checkpoint_rejects counter and a warning log.
///
/// Threading: PollOnce() may be called from any one thread at a time
/// (it serializes internally); Start() runs it on a background thread
/// every poll_interval_ms until Stop(). The router must outlive the
/// watcher. The watcher owns every policy it swaps in (the router
/// holds raw pointers), retaining the current and previous one.
class CheckpointWatcher {
 public:
  CheckpointWatcher(ServeRouter* router,
                    const CheckpointWatcherConfig& config);
  ~CheckpointWatcher();

  CheckpointWatcher(const CheckpointWatcher&) = delete;
  CheckpointWatcher& operator=(const CheckpointWatcher&) = delete;

  /// One deterministic scan-validate-swap pass (what the background
  /// thread runs; tests and benches call it directly).
  SwapResult PollOnce();

  /// Background polling; idempotent. Stop() is called by the
  /// destructor and blocks until the thread (and any in-flight poll)
  /// has finished.
  void Start();
  void Stop();

  /// Generation currently being served (initial_generation until the
  /// first successful swap).
  uint64_t generation() const;

  struct Stats {
    int64_t polls = 0;
    int64_t swaps = 0;
    int64_t rejects = 0;  // candidates that failed load/freeze/compat
    uint64_t generation = 0;
  };
  Stats stats() const;

 private:
  struct Candidate {
    uint64_t generation = 0;
    std::string dir;
  };

  /// Highest-generation un-rejected bundle above generation_; false
  /// when there is none. Caller holds mutex_.
  bool FindCandidateLocked(Candidate* candidate) const;
  void RejectLocked(const Candidate& candidate, const char* why);

  ServeRouter* router_;
  CheckpointWatcherConfig config_;

  mutable std::mutex mutex_;  // serializes polls; guards everything below
  uint64_t generation_;
  /// Policies this watcher swapped in, kept alive for the router's raw
  /// pointers: current_ is being served; previous_ covers stragglers
  /// holding the agent() accessor across a swap.
  std::unique_ptr<LoadedPolicy> current_;
  std::unique_ptr<LoadedPolicy> previous_;
  /// "dir#generation" keys of candidates that failed; never retried.
  std::set<std::string> rejected_;
  int64_t polls_ = 0;
  int64_t swaps_ = 0;
  int64_t reject_count_ = 0;

  obs::Gauge* metric_generation_ = nullptr;
  obs::Counter* metric_swaps_ = nullptr;
  obs::Counter* metric_rejects_ = nullptr;

  std::mutex thread_mutex_;  // guards thread_ / stop_ handshake
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace serve
}  // namespace sim2rec

#endif  // SIM2REC_SERVE_CHECKPOINT_WATCHER_H_
