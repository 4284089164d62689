#ifndef SIM2REC_OBS_METRICS_H_
#define SIM2REC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sim2rec {
namespace obs {

/// Process-wide observability layer: named counters, gauges and
/// log-bucketed histograms, cheap enough for hot paths.
///
/// Overhead policy (see DESIGN.md "Observability"):
///  * Recording never takes a lock — counters are sharded atomics,
///    histogram buckets are atomics, gauges are single atomic stores.
///  * Registration (name -> metric lookup) takes the registry mutex;
///    hot paths amortize it to one lookup per call site via the
///    function-local statics inside the S2R_* macros below.
///  * Instrumentation must be determinism-neutral: it may read values
///    and clocks but never touches an Rng or alters control flow.
///  * Two kill switches: `SetEnabled(false)` at run time (also the
///    SIM2REC_OBS=0 environment variable) and the SIM2REC_OBS=OFF
///    CMake option at compile time (defines SIM2REC_OBS_DISABLED),
///    which turns `Enabled()` into `constexpr false` so every gated
///    block is dead-code eliminated.
///
/// The primitive classes themselves record unconditionally — the
/// enable gate lives in the wiring macros — so components that own a
/// metric object as functional API surface (the histograms behind
/// serve::InferenceServer::stats) keep working whatever the global
/// switch says.

#if defined(SIM2REC_OBS_DISABLED)
constexpr bool Enabled() { return false; }
inline void SetEnabled(bool) {}
#else
namespace internal {
std::atomic<bool>& EnabledFlag();
}  // namespace internal

/// True when instrumentation should record. Initialized once from the
/// SIM2REC_OBS environment variable ("0"/"off" disable).
inline bool Enabled() {
  return internal::EnabledFlag().load(std::memory_order_relaxed);
}
inline void SetEnabled(bool enabled) {
  internal::EnabledFlag().store(enabled, std::memory_order_relaxed);
}
#endif

/// Monotonically increasing event count. Sharded across cache lines so
/// concurrent hot-path increments from many threads do not serialize on
/// one cache line; reads sum the shards.
class Counter {
 public:
  static constexpr int kShards = 8;

  Counter();

  void Add(int64_t delta = 1);
  int64_t value() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> value{0};
  };
  Shard shards_[kShards];
};

/// Last-written value (losses, learning rates, queue depths).
///
/// Merge semantics: gauges do not sum. When snapshots from several
/// registries/processes are folded with MergeSnapshots, the LAST part
/// (in the caller's part order) carrying a given gauge name wins
/// wholesale. A merged multi-process view therefore shows one
/// process's gauge values; the `obs.pid` / `obs.snapshot_seq` process
/// gauges the MetricsExporter publishes exist precisely so the merged
/// result stays attributable to the process that won.
class Gauge {
 public:
  void Set(double value) {
    value_.store(value, std::memory_order_relaxed);
    set_.store(true, std::memory_order_relaxed);
  }
  /// Monotonic Set: keeps the larger of the current and new value, so
  /// concurrent writers racing on an ordered quantity (e.g. the
  /// checkpoint generation a shard has observed) can never publish a
  /// regression. Lock-free CAS loop; an unset gauge takes any value.
  void SetMax(double value) {
    double current = value_.load(std::memory_order_relaxed);
    while (!set_.load(std::memory_order_relaxed) || value > current) {
      if (value_.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
        set_.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  /// False until the first Set (exports can skip never-written gauges).
  bool has_value() const { return set_.load(std::memory_order_relaxed); }
  void Reset() {
    value_.store(0.0, std::memory_order_relaxed);
    set_.store(false, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<bool> set_{false};
};

/// One numeric tag attached to an exemplar ("shard" -> 3, "batch" -> 17).
struct ExemplarTag {
  std::string name;
  double value = 0.0;
};

/// One concrete sample retained for a histogram bucket: the recorded
/// value, the trace id of the request that produced it (0 when none was
/// in scope) and up to LogHistogram::kMaxExemplarTags numeric tags. The
/// whole point of exemplars is that a p99 spike in the aggregate
/// resolves to a specific request you can find in the trace output.
struct ExemplarSample {
  int bucket = 0;
  double value = 0.0;
  uint64_t trace_id = 0;
  std::vector<ExemplarTag> tags;
};

/// Log-bucketed histogram over non-negative doubles: O(1) memory and
/// record cost at any sample volume. Buckets double from 1; bucket 0 is
/// [0, 1). Record is lock-free (atomic bucket counters + CAS min/max),
/// so it is safe — and cheap — from any number of threads; quantiles
/// are interpolated linearly inside the owning bucket and clamped to
/// the tracked [min, max], so q=0 / q=1 / single-sample queries return
/// exact observed values while interior quantiles carry bucket-sized
/// error (fine for p50/p95/p99 reporting, not for asserting exact
/// values).
///
/// Exemplars: each bucket additionally keeps a tiny reservoir of
/// kExemplarSlots recent (value, trace_id, tags) samples, written via
/// RecordWithExemplar. Writers claim a slot with a seqlock CAS and
/// *drop the exemplar on contention* rather than wait — the aggregate
/// counts above are always exact; the exemplar reservoir is best-effort
/// by design and never blocks a hot path. Slot rotation is driven by
/// the bucket's own sample count (no Rng — instrumentation stays
/// determinism-neutral), so the reservoir holds the most recent
/// samples per bucket.
class LogHistogram {
 public:
  static constexpr int kBuckets = 64;
  static constexpr int kExemplarSlots = 2;   // per-bucket reservoir size
  static constexpr int kMaxExemplarTags = 4;

  void Record(double value);

  /// Record + retain an exemplar for the owning bucket. Tag names must
  /// be string literals (or otherwise immortal): the hot path stores
  /// the pointer, never copies the text. Pass up to kMaxExemplarTags
  /// (name, value) pairs.
  void RecordWithExemplar(double value, uint64_t trace_id,
                          const char* tag_name0 = nullptr,
                          double tag_value0 = 0.0,
                          const char* tag_name1 = nullptr,
                          double tag_value1 = 0.0,
                          const char* tag_name2 = nullptr,
                          double tag_value2 = 0.0,
                          const char* tag_name3 = nullptr,
                          double tag_value3 = 0.0);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  /// Smallest / largest recorded value; 0 when empty.
  double min_value() const;
  double max_value() const;
  /// q in [0, 1]; 0 when empty. Snapshot-consistent against concurrent
  /// Record calls (the total is derived from the same bucket loads the
  /// interpolation uses).
  double Quantile(double q) const;
  /// Point-in-time copy of the kBuckets bucket counters — the mergeable
  /// representation (see MergeSnapshots): two histograms merged at
  /// bucket granularity lose nothing the individual quantile queries
  /// had.
  std::vector<int64_t> BucketCounts() const;
  /// Stable copy of every written exemplar slot, ordered by bucket.
  /// Seqlock-consistent against concurrent writers: a slot mid-write is
  /// retried a few times, then skipped (best-effort, like the writes).
  std::vector<ExemplarSample> Exemplars() const;
  void Reset();

 private:
  /// Seqlock-guarded exemplar slot: even seq = stable, odd = writer in
  /// flight, 0 = never written. Payload fields are relaxed atomics so
  /// concurrent access is well-defined; the seq protocol makes reads
  /// internally consistent.
  struct alignas(64) ExemplarSlot {
    std::atomic<uint32_t> seq{0};
    std::atomic<double> value{0.0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<int> num_tags{0};
    std::atomic<const char*> tag_names[kMaxExemplarTags] = {};
    std::atomic<double> tag_values[kMaxExemplarTags] = {};
  };

  static int BucketFor(double value);

  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  // valid only when count_ > 0
  std::atomic<double> max_{0.0};
  ExemplarSlot exemplar_slots_[kBuckets][kExemplarSlots];
};

struct CounterSample {
  std::string name;
  int64_t value = 0;
};
struct GaugeSample {
  std::string name;
  double value = 0.0;
};
struct HistogramSample {
  std::string name;
  int64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  /// Raw log2-bucket counts (LogHistogram::kBuckets entries when the
  /// sample came from a registry snapshot). Carried so snapshots from
  /// several registries/processes can be merged losslessly at bucket
  /// granularity; empty for hand-built samples, in which case a merge
  /// falls back to conservative quantiles (max across parts).
  std::vector<int64_t> buckets;
  /// Best-effort retained samples, ordered by bucket (see LogHistogram).
  /// Merges concatenate and re-sort; the snapshot codec carries them on
  /// the wire.
  std::vector<ExemplarSample> exemplars;
};

/// Point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// {"counters":{...},"gauges":{...},"histograms":{...}} — strict
  /// JSON (non-finite doubles exported as null). Histogram objects
  /// include an "exemplars" array when any were retained (trace ids as
  /// decimal strings: u64 does not fit a JSON double).
  std::string ToJson() const;
  /// Aligned human-readable table, one metric per line.
  std::string ToText() const;
  /// Prometheus text exposition (format 0.0.4): dots in metric names
  /// become underscores, counters export as `# TYPE ... counter`,
  /// gauges as gauge, histograms as summaries (quantile-labelled
  /// series plus _sum/_count). Exemplars ride along as `# exemplar`
  /// comment lines, which scrapers ignore but humans reading
  /// `curl /metrics` do not.
  std::string ToPrometheusText() const;
};

/// Quantile interpolation over log2 bucket counts (bucket 0 = [0, 1),
/// bucket b spans [2^(b-1), 2^b)), clamped to [min_clamp, max_clamp].
/// Shared by LogHistogram::Quantile and MergeSnapshots so a merged
/// histogram answers exactly like a single histogram holding the union
/// of the samples would.
double QuantileFromLogBuckets(const int64_t* buckets, int num_buckets,
                              double q, double min_clamp,
                              double max_clamp);

/// Merges per-registry snapshots into one unified view — the
/// cross-process aggregation seam: each serving shard (or, later, each
/// server process) snapshots its own registry, and the front end merges
/// them. Counters sum by name; gauges keep the last part's value (parts
/// are ordered, last writer wins); histograms with bucket counts merge
/// exactly (bucket-wise sums, min of mins, max of maxes, quantiles
/// recomputed from the merged buckets), histograms without buckets fall
/// back to max-of-parts quantiles. Names present in any part appear in
/// the result, sorted.
MetricsSnapshot MergeSnapshots(const std::vector<MetricsSnapshot>& parts);

/// Name -> metric map with stable pointers: a metric, once created,
/// lives until process exit, so call sites may cache the pointer
/// forever. Counters, gauges and histograms are separate namespaces;
/// by convention names are dot-separated `<module>.<what>[.<unit>]`
/// (e.g. "serve.latency_us") and a name is used for one kind only.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every S2R_* macro records into.
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LogHistogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;
  /// Zeroes every metric (tests / bench phase boundaries); pointers
  /// stay valid.
  void ResetAll();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LogHistogram>> histograms_;
};

/// Microseconds on a process-local monotonic clock (trace timestamps,
/// scoped timers).
double MonotonicMicros();

/// Records wall time between construction and destruction into a
/// histogram, in microseconds. When observability is disabled the
/// constructor returns before touching the clock or the registry.
class ScopedTimerUs {
 public:
  explicit ScopedTimerUs(const char* histogram_name) {
    if (!Enabled()) return;
    histogram_ = MetricsRegistry::Global().GetHistogram(histogram_name);
    start_us_ = MonotonicMicros();
  }
  ~ScopedTimerUs() {
    if (histogram_ != nullptr) {
      histogram_->Record(MonotonicMicros() - start_us_);
    }
  }
  ScopedTimerUs(const ScopedTimerUs&) = delete;
  ScopedTimerUs& operator=(const ScopedTimerUs&) = delete;

 private:
  LogHistogram* histogram_ = nullptr;
  double start_us_ = 0.0;
};

}  // namespace obs
}  // namespace sim2rec

// Hot-path wiring macros. `name` must be a string literal (each call
// site caches its registry lookup in a function-local static). All of
// them compile to nothing under SIM2REC_OBS_DISABLED because
// obs::Enabled() is constexpr false there.
#define S2R_COUNT(name, delta)                                           \
  do {                                                                   \
    if (::sim2rec::obs::Enabled()) {                                     \
      static ::sim2rec::obs::Counter* s2r_obs_counter =                  \
          ::sim2rec::obs::MetricsRegistry::Global().GetCounter(name);    \
      s2r_obs_counter->Add(delta);                                       \
    }                                                                    \
  } while (0)

#define S2R_GAUGE_SET(name, value)                                       \
  do {                                                                   \
    if (::sim2rec::obs::Enabled()) {                                     \
      static ::sim2rec::obs::Gauge* s2r_obs_gauge =                      \
          ::sim2rec::obs::MetricsRegistry::Global().GetGauge(name);      \
      s2r_obs_gauge->Set(value);                                         \
    }                                                                    \
  } while (0)

#define S2R_HISTOGRAM(name, value)                                       \
  do {                                                                   \
    if (::sim2rec::obs::Enabled()) {                                     \
      static ::sim2rec::obs::LogHistogram* s2r_obs_histogram =           \
          ::sim2rec::obs::MetricsRegistry::Global().GetHistogram(name);  \
      s2r_obs_histogram->Record(value);                                  \
    }                                                                    \
  } while (0)

// As S2R_HISTOGRAM, but also retains an exemplar: the trace id plus up
// to four (literal-name, double) tag pairs, e.g.
//   S2R_HISTOGRAM_EX("serve.latency_us", us, trace_id, "shard", sid);
#define S2R_HISTOGRAM_EX(name, value, trace_id, ...)                     \
  do {                                                                   \
    if (::sim2rec::obs::Enabled()) {                                     \
      static ::sim2rec::obs::LogHistogram* s2r_obs_histogram =           \
          ::sim2rec::obs::MetricsRegistry::Global().GetHistogram(name);  \
      s2r_obs_histogram->RecordWithExemplar(                             \
          value, trace_id __VA_OPT__(, ) __VA_ARGS__);                   \
    }                                                                    \
  } while (0)

#endif  // SIM2REC_OBS_METRICS_H_
