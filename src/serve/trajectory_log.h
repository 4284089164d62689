#ifndef SIM2REC_SERVE_TRAJECTORY_LOG_H_
#define SIM2REC_SERVE_TRAJECTORY_LOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "obs/metrics.h"

namespace sim2rec {
namespace serve {

/// Serve-side trajectory logging: the "log" half of the
/// continuous-learning loop (the "refresh" half replays segments into
/// data::LoggedDataset, see ReplayTrajectoryLogs). Opt-in and bounded:
/// shards that are handed no sink log nothing, a full ring drops the
/// newest record instead of blocking, and nothing on the Act path ever
/// takes a lock or touches the filesystem.
///
/// Dataflow:
///   Act hot path (per shard, one producer at a time = whichever
///   caller runs the shard's current batch) --Append--> TrajectorySink
///   SPSC ring
///   --TrajectoryLog::Flush (any one caller thread)--> CRC-framed
///   binary segments on disk (staged tmp+rename, like checkpoint and
///   session-snapshot writes)
///   --ReadTrajectorySegment / ReplayTrajectoryLogs--> LoggedDataset
///   for simulator-ensemble refresh.
///
/// Determinism: Append copies values already computed for the reply —
/// it never draws randomness, never reorders the batch, and never
/// feeds anything back into serving, so replies are bitwise-identical
/// with logging on or off (pinned in tests/serve_test.cc).

struct TrajectoryLogConfig {
  /// Segment output directory (created on first flush).
  std::string dir;
  int obs_dim = 0;
  int action_dim = 0;
  /// Per-shard ring capacity in records; must be a power of two. At
  /// the default, a ring holds 32768 in-flight records per shard
  /// before Append starts dropping (counted, never blocking).
  int ring_capacity = 1 << 15;
  /// Records per finalized segment file. Flush cuts a segment whenever
  /// this many records have accumulated; CloseSegment flushes the
  /// remainder.
  int segment_max_records = 4096;
  /// Metrics destination; null = obs::MetricsRegistry::Global().
  obs::MetricsRegistry* registry = nullptr;
};

/// One shard's lock-free single-producer/single-consumer ring. There is
/// one producer at a time: the caller thread running the shard's
/// current batch (InferenceServer runs one batch at a time and hands
/// the server to the next batch runner under its mutex, which orders
/// one producer's appends before the next one's). The consumer is
/// whoever calls TrajectoryLog::Flush. Append is wait-free: a full
/// ring increments the drop counter and returns.
class TrajectorySink {
 public:
  /// Producer side. `obs` has obs_dim entries, `action` action_dim;
  /// `step` is the 0-based serving step within the user's session.
  void Append(uint64_t user_id, uint32_t step, double reward,
              const double* obs, const double* action);

  int shard_id() const { return shard_id_; }
  int64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  friend class TrajectoryLog;
  TrajectorySink(int shard_id, int obs_dim, int action_dim, int capacity);

  struct Slot {
    uint64_t user_id = 0;
    uint32_t step = 0;
  };

  const int shard_id_;
  const int obs_dim_;
  const int action_dim_;
  const int capacity_;       // power of two
  const int payload_stride_; // doubles per record: 1 + obs + action
  std::vector<Slot> meta_;
  std::vector<double> payload_;
  // head_ = next write (producer), tail_ = next read (consumer).
  // Indices grow without bound; slot = index & (capacity-1).
  std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> tail_{0};
  std::atomic<int64_t> dropped_{0};
};

/// One decoded (s, a, r, step) tuple as read back from a segment.
struct TrajectoryRecord {
  uint64_t user_id = 0;
  uint32_t step = 0;      // 0-based step within the session
  uint32_t shard_id = 0;  // shard that served the request
  double reward = 0.0;    // critic value estimate at serve time
  std::vector<double> obs;
  std::vector<double> action;
};

enum class SegmentStatus {
  kOk = 0,
  kNotFound,
  /// Segment written by a newer format version — intact, upgrade the
  /// reader (mirrors checkpoint LoadStatus semantics).
  kVersionUnsupported,
  /// Bad magic, truncation, or a CRC mismatch on any frame.
  kCorrupt,
};

struct TrajectorySegment {
  int obs_dim = 0;
  int action_dim = 0;
  std::vector<TrajectoryRecord> records;
};

/// Owner of the per-shard sinks and the segment writer. Thread-safe:
/// OpenSink and Flush/CloseSegment take the log mutex; sinks themselves
/// are lock-free (see TrajectorySink).
class TrajectoryLog {
 public:
  explicit TrajectoryLog(const TrajectoryLogConfig& config);
  ~TrajectoryLog();

  TrajectoryLog(const TrajectoryLog&) = delete;
  TrajectoryLog& operator=(const TrajectoryLog&) = delete;

  /// The sink for a shard — stable pointer, created on first call,
  /// same pointer on repeat calls. Hand it to
  /// InferenceServerConfig::trajectory_sink (the ServeRouter does this
  /// per shard when given a TrajectoryLog).
  TrajectorySink* OpenSink(int shard_id);

  /// Drains every sink into the pending buffer and finalizes a segment
  /// file for each full segment_max_records batch. Returns false on
  /// I/O failure (records stay pending; a later flush retries).
  bool Flush();

  /// Flush + write any sub-capacity remainder as a final segment.
  bool CloseSegment();

  struct Stats {
    int64_t appended = 0;  // records accepted into rings
    int64_t dropped = 0;   // records lost to full rings
    int64_t flushed = 0;   // records written into finalized segments
    int64_t segments = 0;  // segment files finalized
  };
  Stats stats() const;

  const TrajectoryLogConfig& config() const { return config_; }

 private:
  bool WriteSegmentLocked(size_t record_count);

  TrajectoryLogConfig config_;
  mutable std::mutex mutex_;
  std::map<int, std::unique_ptr<TrajectorySink>> sinks_;
  /// Drained-but-not-yet-finalized records, encoded on drain.
  std::vector<TrajectoryRecord> pending_;
  int next_segment_ = 0;
  int64_t flushed_ = 0;
  /// Producer-side drop totals already surfaced on metric_drops_.
  int64_t synced_drops_ = 0;
  obs::Counter* metric_appends_ = nullptr;
  obs::Counter* metric_drops_ = nullptr;
  obs::Counter* metric_segments_ = nullptr;
};

/// Decodes one segment file (see PROTOCOL.md "Trajectory-log
/// segments"): validates magic, version, and every frame's CRC before
/// surfacing a single record.
SegmentStatus ReadTrajectorySegment(const std::string& path,
                                    TrajectorySegment* out);

/// Replays every `seg-*.s2tl` under `dir` (filename order — which is
/// finalization order) into `dataset`, closing the loop back to the
/// data layer the simulator ensemble trains from. Per user, records
/// are stitched in step order and split into one UserTrajectory per
/// session (a step-0 record starts a new session). The terminal
/// observation s_T is duplicated from the last served observation —
/// serving never sees the post-action state — and both `feedback` and
/// `rewards` carry the logged critic value estimate. group_id is the
/// serving shard id. Returns false (with *error set) on any corrupt or
/// unreadable segment, or on a dim mismatch with the dataset.
bool ReplayTrajectoryLogs(const std::string& dir,
                          data::LoggedDataset* dataset, std::string* error);

}  // namespace serve
}  // namespace sim2rec

#endif  // SIM2REC_SERVE_TRAJECTORY_LOG_H_
