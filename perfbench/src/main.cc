// perfbench: the repository benchmark. Run through perfbench/run.py,
// which builds this binary and forwards its arguments:
//
//   perfbench --workload train-lts|train-dpr|serve-open --seed N
//             --seconds S --trace 0|1
//   perfbench --self-test
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero
// when any correctness check fails.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "bench.h"
#include "infer/simd.h"
#include "util/logging.h"

namespace perfbench {

double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

double SecondsSinceProcessStart() {
  std::ifstream stat("/proc/self/stat");
  std::string line;
  std::getline(stat, line);
  // Field 22 (starttime, clock ticks since boot) follows the ')' that
  // closes the command name.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  for (int i = 3; i <= 22 && fields >> field; ++i) {
  }
  const double start_s =
      std::strtod(field.c_str(), nullptr) / sysconf(_SC_CLK_TCK);
  std::ifstream uptime_file("/proc/uptime");
  double uptime_s = 0.0;
  uptime_file >> uptime_s;
  return std::max(0.0, uptime_s - start_s);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * (values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  if (pos == lo || !std::isfinite(values[hi])) {
    return pos == lo ? values[lo] : values[hi];
  }
  return values[lo] + (pos - lo) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / values.size();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;
}

int64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  int64_t fields[8] = {};
  stat >> cpu;
  for (int64_t& field : fields) stat >> field;
  return cpu == "cpu" ? fields[7] : 0;
}

uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double SplitMix::Exponential(double mean) {
  return -mean * std::log(1.0 - Uniform());
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, int64_t samples,
                 const std::string& alias) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry = {name, unit, alias, value, samples};
      return;
    }
  }
  entries_.push_back({name, unit, alias, value, samples});
}

void Report::Fail(const std::string& what) {
  failures_.push_back(what);
  std::printf("# CHECK FAILED: %s\n", what.c_str());
}

void Report::CountAttempts(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Report::Has(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return true;
  }
  return false;
}

void Report::Print(const std::vector<MetricSpec>& specs) const {
  std::printf("# %-28s %14s %-7s %8s  %s\n", "metric", "value", "unit",
              "samples", "workload name");
  for (const Entry& entry : entries_) {
    std::printf("# %-28s %14.6g %-7s %8lld  %s\n", entry.name.c_str(),
                entry.value, entry.unit.c_str(),
                static_cast<long long>(entry.samples),
                entry.alias.c_str());
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << std::max<int64_t>(attempted_, 1)
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    double value = 0.0;
    for (const Entry& entry : entries_) {
      if (entry.name == spec.name) value = entry.value;
    }
    if (!std::isfinite(value)) value = 0.0;
    json << (first ? "" : ", ") << "\"" << spec.name << "\": {\"value\": "
         << value << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
}

int64_t SpanLog::Begin(const char* name, int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  return Add(name, Now(), 0.0, parent, request);
}

void SpanLog::End(int64_t index) {
  if (index < 0) return;
  const double end = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end = end;
}

int64_t SpanLog::Add(const char* name, double start, double end,
                     int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, end, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::SetParent(int64_t index, int64_t parent) {
  if (index < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].parent = parent;
}

std::vector<std::pair<std::string, double>> SpanLog::SelfTimes() const {
  // Children of one parent never overlap in this harness (training is
  // single-threaded; a request's server span nests inside its client
  // span), so covered time is the plain sum of child durations.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) covered[span.parent] += span.end - span.start;
  }
  std::map<std::string, double> self;
  std::vector<std::string> order;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const std::string name = spans_[i].name;
    if (self.find(name) == self.end()) order.push_back(name);
    self[name] += spans_[i].end - spans_[i].start - covered[i];
  }
  std::vector<std::pair<std::string, double>> out;
  for (const std::string& name : order) out.emplace_back(name, self[name]);
  return out;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%lld,\"request\":%llu}\n",
                 i, span.name, span.start * 1e6, span.end * 1e6,
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.request));
  }
  return std::fclose(file) == 0;
}

namespace {

// Fixed scalar loop: a dependent multiply-add chain the compiler cannot
// vectorise or fold. Printed beside the metrics as a host-speed probe;
// never used to scale them.
double HostProbeMs() {
  std::vector<double> runs;
  for (int r = 0; r < 5; ++r) {
    const double start = Now();
    volatile double sink = 0.0;
    double x = 1.0;
    for (int i = 0; i < 4000000; ++i) x = x * 1.0000001 + 1e-9;
    sink = x;
    (void)sink;
    runs.push_back((Now() - start) * 1e3);
  }
  return Median(runs);
}

}  // namespace

void PrintRunContext(const Options& options, int64_t steal_ticks,
                     double seconds) {
  std::printf(
      "# context: workload=%s seed=%llu seconds=%d trace=%d cores=%u "
      "simd=%s build_type=%s cxx_flags=\"%s\" revision=%s\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0,
      std::thread::hardware_concurrency(),
      sim2rec::infer::SimdLevelName(sim2rec::infer::ActiveSimdLevel()),
      PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
      std::getenv("PERFBENCH_REVISION") != nullptr
          ? std::getenv("PERFBENCH_REVISION")
          : "unknown");
  std::printf("# host probe: fixed scalar loop median %.3f ms (not used to "
              "scale metrics); hypervisor steal %lld ticks over %.1f s\n",
              HostProbeMs(), static_cast<long long>(steal_ticks), seconds);
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"rate_per_s", "1/s"},
      {"p50_ms", "ms"}};
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = {
      // Training loop: per-iteration means and per-run counts.
      {"rl.collect_ms", "ms"}, {"core.agent_step_ms", "ms"},
      {"envs.step_ms", "ms"}, {"rl.update_ms", "ms"},
      {"core.forward_rollout_ms", "ms"}, {"sadae.train_step_ms", "ms"},
      {"nn.backward_ms", "ms"}, {"rl.eval_ms", "ms"},
      {"rl.ppo_epochs", "count"}, {"rl.transitions", "count"},
      // Set-up.
      {"setup.cold_s", "s"}, {"sadae.pretrain_s", "s"}, {"data.dataset_s", "s"},
      {"sim.ensemble_build_s", "s"}, {"sim.trend_filter_s", "s"},
      {"sim.trend_keep_ratio", "ratio"}, {"train.final_return", "score"},
      {"train.iter_ms.p90", "ms"},
      // Serving.
      {"transport.overhead_us.p50", "us"}, {"transport.overhead_us.p99", "us"},
      {"serve.service_us.p50", "us"}, {"serve.service_us.p99", "us"},
      {"infer.forward_us.b1", "us"}, {"infer.forward_us.bmean", "us"},
      {"serve.wait_us.p50", "us"}, {"serve.inflight.mean", "requests"},
      {"serve.inflight.max", "requests"}, {"serve.batch_rows.mean", "rows"},
      {"serve.session_hit_ratio", "ratio"},
      {"serve.session_evictions", "count"},
      {"serve.session_store_fill", "ratio"},
      {"load.await_ready_ratio", "ratio"}, {"load.late_us.p99", "us"},
      {"load.late_us.max", "us"}, {"serve.low.p90_us", "us"},
      {"serve.low.p99_us", "us"},
      {"serve.mid.p50_us", "us"}, {"serve.mid.p90_us", "us"},
      {"serve.mid.p99_us", "us"},
      // Tracing itself.
      {"trace.overhead_pct", "%"}, {"trace.unattributed_pct", "%"}};
  return metrics;
}

void AddIdleLayers(Report* report) {
  for (const MetricSpec& spec : PerLayerMetrics()) {
    if (!report->Has(spec.name)) {
      report->Add(spec.name, 0.0, spec.unit, 0, "(layer not called)");
    }
  }
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Now();  // pin the clock epoch at process start
  sim2rec::SetLogLevel(sim2rec::LogLevel::kWarn);
  Options options;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atoi(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (self_test) return RunSelfTest(options);
  if (options.seconds < 1) return Usage();

  const int64_t steal_start = StealTicks();
  Report report;
  int rc = 0;
  if (options.workload == "train-lts") {
    rc = RunTrainLts(options, &report);
  } else if (options.workload == "train-dpr") {
    rc = RunTrainDpr(options, &report);
  } else if (options.workload == "serve-open") {
    rc = RunServeOpen(options, &report);
  } else {
    return Usage();
  }
  PrintRunContext(options, StealTicks() - steal_start, Now());
  report.Print(options.trace ? PerLayerMetrics() : EndToEndMetrics());
  std::fflush(stdout);
  return rc != 0 || !report.correct() ? 1 : 0;
}
