#ifndef SIM2REC_CORE_THREAD_POOL_H_
#define SIM2REC_CORE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sim2rec {
namespace core {

/// Work-stealing thread pool for deterministic data parallelism.
///
/// The pool executes index spaces ([0, n) loops) rather than free-form
/// task graphs: `ParallelFor(n, fn)` splits the indices into one
/// contiguous range per participant (the calling thread plus every
/// worker); each participant drains its own range first and then steals
/// single iterations from the ranges of busy participants. Because every
/// `fn(i)` writes only to slot i of whatever output it fills, results
/// are bit-identical for any thread count — scheduling only changes
/// *when* an iteration runs, never what it computes. This is the
/// property the ensemble-uncertainty fan-out and the load driver rely
/// on (see DESIGN.md, "Threading model & determinism").
///
/// A `ParallelFor` issued from inside another `ParallelFor` (on any
/// participant thread) runs serially on the issuing thread: the outer
/// loop already owns the pool, and the serial fallback keeps nesting
/// deadlock-free without a scheduler.
class ThreadPool {
 public:
  /// `num_threads` counts the calling thread, so ThreadPool(4) spawns 3
  /// workers and runs 4-wide. Values < 1 are clamped to 1 (no workers,
  /// every ParallelFor inline).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total participants (workers + calling thread), >= 1.
  int size() const { return num_participants_; }

  /// Runs fn(i) for every i in [0, n), blocking until all complete.
  /// The first exception thrown by fn is rethrown here (remaining
  /// iterations are skipped). Only one external thread may drive a
  /// given pool at a time; nested calls from inside fn are safe (they
  /// run inline).
  void ParallelFor(int n, const std::function<void(int)>& fn);

  /// Thread count from the SIM2REC_THREADS env var when set (clamped to
  /// [1, 256]), otherwise std::thread::hardware_concurrency().
  static int DefaultThreads();

  /// Process-wide shared pool sized by DefaultThreads() on first use.
  static ThreadPool& Global();

 private:
  /// Per-participant iteration range; `next` advances past `end` when
  /// the range is exhausted (harmless — claims simply fail).
  struct Range {
    std::atomic<int> next{0};
    int end = 0;
  };
  struct Batch {
    const std::function<void(int)>* fn = nullptr;
    int n = 0;
    std::vector<std::unique_ptr<Range>> ranges;
    std::atomic<bool> cancelled{false};
    std::exception_ptr error;  // guarded by error_mutex
    std::mutex error_mutex;
  };

  void WorkerLoop(int participant);
  void RunParticipant(Batch* batch, int participant);

  int num_participants_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers wait for a new batch
  std::condition_variable done_cv_;  // caller waits for workers to drain
  Batch* batch_ = nullptr;           // guarded by mutex_
  uint64_t generation_ = 0;          // guarded by mutex_
  int workers_active_ = 0;           // guarded by mutex_
  bool shutdown_ = false;            // guarded by mutex_
};

}  // namespace core
}  // namespace sim2rec

#endif  // SIM2REC_CORE_THREAD_POOL_H_
