// Shared pieces of the perfbench harness: options, the metric report
// that ends every run with one JSON line, percentiles, the in-memory
// span log of traced runs, and the run context printed beside results.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory (relative to the working directory) for span dumps and
  /// scratch files such as the serving checkpoint.
  std::string work_dir = ".bench_build/perfbench-work";
};

/// Seconds on the steady clock since an arbitrary process-wide epoch.
double Now();
/// CPU time of the whole process (every thread), in seconds. The
/// kernel's paravirtual steal accounting leaves out the time the
/// hypervisor gave to other guests.
double CpuNow();
/// Seconds since the process started (read from /proc/self/stat).
double SecondsSinceProcessStart();

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();
/// CPU time a hypervisor gave to other guests while the guest's CPUs
/// wanted to run ("steal" in /proc/stat, all CPUs), in clock ticks. 0
/// where the kernel does not report it.
int64_t StealTicks();
/// A stretch of a run is clean when the hypervisor stole at most this
/// many clock ticks per second of it (1% of four CPUs at 100 Hz); other
/// stretches ran while other guests held the CPUs.
constexpr double kCleanStealPerS = 4.0;
inline bool Clean(int64_t steal_ticks, double seconds) {
  return steal_ticks <= kCleanStealPerS * seconds;
}

/// splitmix64: the benchmark's own generator, so generated inputs do
/// not depend on the library's Rng.
uint64_t Mix64(uint64_t x);
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix64(state_ += 0x9e3779b97f4a7c15ULL); }
  /// Uniform in [0, 1).
  double Uniform() { return (Next() >> 11) * 0x1.0p-53; }
  /// Exponential with the given mean.
  double Exponential(double mean);

 private:
  uint64_t state_;
};

/// A metric as BENCHMARK.json declares it.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Metrics of one run. Every metric carries the name used in the final
/// JSON line, a unit, and how many samples it summarises; `alias` is
/// the workload-specific name printed in the table.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples, const std::string& alias = "");
  /// Records a failed correctness check; the run then exits non-zero.
  void Fail(const std::string& what);
  void CountAttempts(int64_t attempted, int64_t failed);

  bool correct() const { return failures_.empty(); }
  bool Has(const std::string& name) const;

  /// Prints the human-readable table (one line per metric) followed by
  /// the JSON result line carrying exactly `specs`, in that order.
  void Print(const std::vector<MetricSpec>& specs) const;

 private:
  struct Entry {
    std::string name, unit, alias;
    double value = 0.0;
    int64_t samples = 0;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// In-memory span log for traced runs: name, start, end, parent and a
/// request id that ties spans of one request together across threads.
/// Disabled logs record nothing and cost one branch per call.
class SpanLog {
 public:
  struct Span {
    const char* name = nullptr;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1;  // index into spans(), -1 for a root
    uint64_t request = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its index (or -1 when disabled).
  int64_t Begin(const char* name, int64_t parent, uint64_t request = 0);
  void End(int64_t index);
  /// Records a complete span with known bounds.
  int64_t Add(const char* name, double start, double end, int64_t parent,
              uint64_t request = 0);
  void SetParent(int64_t index, int64_t parent);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name (duration minus the part covered by child
  /// spans), summed over all spans, in seconds.
  std::vector<std::pair<std::string, double>> SelfTimes() const;
  /// Writes one JSON object per span. False on I/O failure.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Prints the run context (cores, SIMD level, build, revision), the
/// fixed host-speed probe and the run's hypervisor steal as comments.
void PrintRunContext(const Options& options, int64_t steal_ticks,
                     double seconds);

int RunTrainLts(const Options& options, Report* report);
/// Self-test: a short LTS training run through the timing decorators
/// (spans on and off) logs bitwise what the bare trainer logs.
bool TrainingDecoratorsForwardUnchanged();
/// Self-tests: the benchmark's set-ups are copies of the experiment
/// functions up to Train(). Trained bare, they log bitwise what
/// experiments::RunLtsVariant (Sim2Rec on LtsTaskOmegas(4)) and
/// experiments::TrainDprPolicy log for a short run.
bool LtsSetUpMatchesExperiment();
bool DprSetUpMatchesExperiment();
int RunTrainDpr(const Options& options, Report* report);
int RunServeOpen(const Options& options, Report* report);
int RunSelfTest(const Options& options);

/// The metrics the final JSON line carries, mirroring BENCHMARK.json:
/// end-to-end metrics untraced, per-layer metrics traced.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();
/// Adds a zero for every per-layer metric the workload did not report:
/// layers the workload never calls did no work.
void AddIdleLayers(Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
