#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/context_agent.h"
#include "core/sim2rec_trainer.h"
#include "core/thread_pool.h"
#include "envs/lts_env.h"
#include "experiments/iteration_export.h"
#include "experiments/lts_experiment.h"
#include "obs/exporter.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/snapshot_codec.h"
#include "obs/trace.h"
#include "serve/inference_server.h"
#include "util/bytes.h"

namespace sim2rec {
namespace obs {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test (removed on destruction).
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("sim2rec_obs_test_" + name + "_" +
               std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

/// Restores the global enabled flag on scope exit so tests that flip it
/// cannot leak state into later tests.
class EnabledGuard {
 public:
  EnabledGuard() : was_(Enabled()) {}
  ~EnabledGuard() { SetEnabled(was_); }

 private:
  bool was_;
};

// ---------------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------------

TEST(Counter, AddsAcrossShardsAndResets) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(Gauge, HasValueOnlyAfterSet) {
  Gauge gauge;
  EXPECT_FALSE(gauge.has_value());
  gauge.Set(3.5);
  EXPECT_TRUE(gauge.has_value());
  EXPECT_DOUBLE_EQ(gauge.value(), 3.5);
  gauge.Set(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), -1.0);
  gauge.Reset();
  EXPECT_FALSE(gauge.has_value());
}

TEST(Gauge, SetMaxIsMonotonic) {
  Gauge gauge;
  // An unset gauge takes any value, even one below the zero default.
  gauge.SetMax(-2.0);
  EXPECT_TRUE(gauge.has_value());
  EXPECT_DOUBLE_EQ(gauge.value(), -2.0);
  gauge.SetMax(5.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 5.0);
  gauge.SetMax(3.0);  // lower: kept out
  EXPECT_DOUBLE_EQ(gauge.value(), 5.0);
  // Plain Set still overwrites (SetMax is a mode of use, not a type).
  gauge.Set(1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.0);
}

TEST(Gauge, SetMaxNeverRegressesUnderConcurrentWriters) {
  // The serve.checkpoint_generation use case: racing writers each
  // publish the generation they observed; the gauge must end at the
  // global maximum no matter the interleaving.
  Gauge gauge;
  core::ThreadPool pool(4);
  const int kTasks = 32;
  const int kPerTask = 500;
  pool.ParallelFor(kTasks, [&](int i) {
    for (int j = 0; j < kPerTask; ++j) {
      gauge.SetMax(static_cast<double>((i * 131 + j * 17) % 1000));
    }
  });
  EXPECT_TRUE(gauge.has_value());
  EXPECT_DOUBLE_EQ(gauge.value(), 999.0);  // 131*i+17*j spans 0..999 mod 1000
}

TEST(LogHistogram, CountSumMeanMinMax) {
  LogHistogram histogram;
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
  histogram.Record(2.0);
  histogram.Record(10.0);
  histogram.Record(6.0);
  EXPECT_EQ(histogram.count(), 3);
  EXPECT_DOUBLE_EQ(histogram.sum(), 18.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 6.0);
  EXPECT_DOUBLE_EQ(histogram.min_value(), 2.0);
  EXPECT_DOUBLE_EQ(histogram.max_value(), 10.0);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_DOUBLE_EQ(histogram.max_value(), 0.0);
}

TEST(LogHistogram, IgnoresNonFiniteAndClampsNegative) {
  LogHistogram histogram;
  histogram.Record(std::nan(""));
  histogram.Record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(histogram.count(), 0);
  histogram.Record(-5.0);  // clamped to 0
  EXPECT_EQ(histogram.count(), 1);
  EXPECT_DOUBLE_EQ(histogram.min_value(), 0.0);
}

// The quantile edge behavior the serve histogram previously got wrong:
// interpolation inside a power-of-two bucket must never escape the
// observed value range.

TEST(LogHistogram, QuantileEmptyIsZero) {
  LogHistogram histogram;
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 0.0);
}

TEST(LogHistogram, QuantileSingleSampleIsExactEverywhere) {
  LogHistogram histogram;
  histogram.Record(37.0);  // interior of bucket [32, 64)
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram.Quantile(q), 37.0) << "q=" << q;
  }
}

TEST(LogHistogram, QuantileZeroIsMinAndOneIsMax) {
  LogHistogram histogram;
  for (double v : {3.0, 700.0, 41.5, 12.0, 95.0}) histogram.Record(v);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 700.0);
  // Out-of-range q is clamped, not undefined.
  EXPECT_DOUBLE_EQ(histogram.Quantile(-3.0), 3.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(7.0), 700.0);
}

TEST(LogHistogram, QuantileSubUnitSamples) {
  LogHistogram histogram;
  histogram.Record(0.25);
  histogram.Record(0.5);
  histogram.Record(0.125);
  // All mass in bucket [0, 1): quantiles stay inside the observed range
  // instead of reporting bucket-boundary values.
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.0), 0.125);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 0.5);
  const double p50 = histogram.Quantile(0.5);
  EXPECT_GE(p50, 0.125);
  EXPECT_LE(p50, 0.5);
}

TEST(LogHistogram, QuantilesAreMonotoneInQ) {
  LogHistogram histogram;
  for (int i = 1; i <= 1000; ++i) histogram.Record(i);
  double prev = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double value = histogram.Quantile(q);
    EXPECT_GE(value, prev) << "q=" << q;
    prev = value;
  }
  // Sanity on accuracy: p50 of 1..1000 lands in the owning bucket
  // [512, 1024) or below; it must at least separate from the tails.
  EXPECT_GT(histogram.Quantile(0.99), histogram.Quantile(0.01));
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, PointersAreStablePerName) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  Counter* c = registry.GetCounter("y");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Counters, gauges and histograms are separate namespaces.
  EXPECT_NE(static_cast<void*>(registry.GetGauge("x")),
            static_cast<void*>(a));
}

TEST(MetricsRegistry, SnapshotAndResetAll) {
  MetricsRegistry registry;
  registry.GetCounter("requests")->Add(7);
  registry.GetGauge("loss")->Set(0.25);
  registry.GetGauge("never_set");  // skipped in snapshots
  registry.GetHistogram("latency")->Record(8.0);

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].name, "requests");
  EXPECT_EQ(snapshot.counters[0].value, 7);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].name, "loss");
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1);
  EXPECT_DOUBLE_EQ(snapshot.histograms[0].p50, 8.0);

  registry.ResetAll();
  snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters[0].value, 0);
  EXPECT_TRUE(snapshot.gauges.empty());  // Reset clears has_value
  EXPECT_EQ(snapshot.histograms[0].count, 0);
}

TEST(MetricsSnapshot, ToJsonIsStrictJson) {
  MetricsRegistry registry;
  registry.GetCounter("a.b")->Add(1);
  registry.GetGauge("with \"quotes\"\n")->Set(std::nan(""));  // -> null
  registry.GetHistogram("h")->Record(3.0);
  const std::string json = registry.Snapshot().ToJson();
  std::string error;
  EXPECT_TRUE(JsonValidate(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("null"), std::string::npos);
}

TEST(MetricsSnapshot, ToTextListsEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("hits")->Add(3);
  registry.GetGauge("kl")->Set(0.5);
  registry.GetHistogram("lat")->Record(2.0);
  const std::string text = registry.Snapshot().ToText();
  EXPECT_NE(text.find("hits"), std::string::npos);
  EXPECT_NE(text.find("kl"), std::string::npos);
  EXPECT_NE(text.find("count=1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrency (tsan-labelled: these are the races worth hunting).
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, ConcurrentRecordFromParallelFor) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  LogHistogram* histogram = registry.GetHistogram("h");
  core::ThreadPool pool(4);
  const int kTasks = 64;
  const int kPerTask = 1000;
  pool.ParallelFor(kTasks, [&](int i) {
    for (int j = 0; j < kPerTask; ++j) {
      counter->Add(1);
      histogram->Record(static_cast<double>((i * kPerTask + j) % 97) + 1.0);
    }
  });
  EXPECT_EQ(counter->value(), static_cast<int64_t>(kTasks) * kPerTask);
  EXPECT_EQ(histogram->count(), static_cast<int64_t>(kTasks) * kPerTask);
  EXPECT_DOUBLE_EQ(histogram->min_value(), 1.0);
  EXPECT_DOUBLE_EQ(histogram->max_value(), 97.0);
}

TEST(MetricsRegistry, SnapshotWhileRecording) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  LogHistogram* histogram = registry.GetHistogram("h");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter->Add(1);
        histogram->Record(static_cast<double>((w * 1000 + i++) % 50) + 1.0);
      }
    });
  }
  // Snapshots interleaved with recording must stay internally coherent:
  // quantiles inside [min, max], non-decreasing counter reads.
  int64_t last_count = 0;
  for (int s = 0; s < 200; ++s) {
    const MetricsSnapshot snapshot = registry.Snapshot();
    ASSERT_EQ(snapshot.counters.size(), 1u);
    EXPECT_GE(snapshot.counters[0].value, last_count);
    last_count = snapshot.counters[0].value;
    const HistogramSample& h = snapshot.histograms[0];
    if (h.count > 0) {
      EXPECT_GE(h.p50, h.min);
      EXPECT_LE(h.p50, h.max);
      EXPECT_LE(h.p50, h.p99);
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_EQ(counter->value(), histogram->count());
}

TEST(TraceRecorder, ConcurrentSpansFromManyThreads) {
  EnabledGuard guard;
  SetEnabled(true);
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([] {
      for (int i = 0; i < 200; ++i) {
        S2R_TRACE_SPAN("test/concurrent");
      }
    });
  }
  for (auto& t : threads) t.join();
  recorder.Stop();
  EXPECT_GE(recorder.event_count(), 4 * 200);
  std::string error;
  EXPECT_TRUE(JsonValidate(recorder.ToChromeTraceJson(), &error)) << error;
}

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

TEST(TraceRecorder, InactiveRecorderDropsSpans) {
  EnabledGuard guard;
  SetEnabled(true);
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  recorder.Stop();
  const int64_t before = recorder.event_count();
  {
    S2R_TRACE_SPAN("test/ignored");
  }
  EXPECT_EQ(recorder.event_count(), before);
}

TEST(TraceRecorder, ChromeTraceShapeAndNames) {
  EnabledGuard guard;
  SetEnabled(true);
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  {
    S2R_TRACE_SPAN("test/outer");
    S2R_TRACE_SPAN("test/inner");
  }
  recorder.Stop();
  const std::string json = recorder.ToChromeTraceJson();
  std::string error;
  ASSERT_TRUE(JsonValidate(json, &error)) << error;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("test/outer"), std::string::npos);
  EXPECT_NE(json.find("test/inner"), std::string::npos);
  const std::vector<std::string> names = recorder.SpanNames();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_NE(std::find(names.begin(), names.end(), "test/outer"),
            names.end());
  // Start() clears prior events.
  recorder.Start();
  recorder.Stop();
  EXPECT_EQ(recorder.event_count(), 0);
}

TEST(TraceRecorder, ServingRunExportsValidTraceWithDistinctSpans) {
  if (!Enabled()) GTEST_SKIP() << "observability compiled/switched off";
  EnabledGuard guard;
  SetEnabled(true);

  core::ContextAgentConfig config;
  config.obs_dim = envs::kLtsObsDim;
  config.action_dim = 1;
  config.use_extractor = true;
  config.lstm_hidden = 8;
  config.policy_hidden = {16};
  config.value_hidden = {16};
  Rng rng(3);
  core::ContextAgent agent(config, nullptr, rng);

  serve::InferenceServerConfig server_config;
  server_config.action_low = {0.0};
  server_config.action_high = {1.0};
  serve::InferenceServer server(&agent, server_config);

  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  const nn::Tensor obs = nn::Tensor::Zeros(1, config.obs_dim);
  for (int t = 0; t < 5; ++t) server.Act(7, obs);
  recorder.Stop();

  const std::vector<std::string> names = recorder.SpanNames();
  EXPECT_GE(names.size(), 3u) << "serving should emit >= 3 span kinds";
  EXPECT_NE(std::find(names.begin(), names.end(), "serve/act"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "serve/forward"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "serve/commit"),
            names.end());

  ScratchDir dir("trace_export");
  const std::string path = (dir.path() / "trace.json").string();
  ASSERT_TRUE(recorder.WriteChromeTrace(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  EXPECT_TRUE(JsonValidate(buffer.str(), &error)) << error;
}

// ---------------------------------------------------------------------------
// JSON validator (it guards every exporter, so test it directly).
// ---------------------------------------------------------------------------

TEST(JsonValidate, AcceptsValidDocuments) {
  for (const char* doc :
       {"{}", "[]", "null", "true", "-12.5e-3", "\"s\"",
        "{\"a\":[1,2,{\"b\":null}],\"c\":\"\\u00e9\\n\"}",
        "  [1, 2, 3]  "}) {
    std::string error;
    EXPECT_TRUE(JsonValidate(doc, &error)) << doc << ": " << error;
  }
}

TEST(JsonValidate, RejectsInvalidDocuments) {
  for (const char* doc :
       {"", "{", "[1,]", "{\"a\":}", "{'a':1}", "01", "nul", "1 2",
        "\"unterminated", "{\"a\":1,}", "[1](extra)", "\"bad\\q\"",
        "\"\\u12g4\"", "NaN"}) {
    std::string error;
    EXPECT_FALSE(JsonValidate(doc, &error)) << doc;
    EXPECT_FALSE(error.empty()) << doc;
  }
}

TEST(JsonEscape, EscapesControlAndQuotes) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  std::string error;
  EXPECT_TRUE(JsonValidate(JsonQuote("tricky \"\\\n\t\x02"), &error))
      << error;
}

// ---------------------------------------------------------------------------
// Wiring macros and the enable switch.
// ---------------------------------------------------------------------------

TEST(EnableSwitch, DisabledMacrosRecordNothing) {
  if (!Enabled()) GTEST_SKIP() << "observability compiled/switched off";
  EnabledGuard guard;

  Counter* counter =
      MetricsRegistry::Global().GetCounter("obs_test.switch_counter");
  counter->Reset();
  SetEnabled(false);
  S2R_COUNT("obs_test.switch_counter", 1);
  EXPECT_EQ(counter->value(), 0);
  // The primitives themselves still record when used directly (serve's
  // functional stats must not be silenced by the switch).
  counter->Add(1);
  EXPECT_EQ(counter->value(), 1);
  SetEnabled(true);
  S2R_COUNT("obs_test.switch_counter", 1);
  EXPECT_EQ(counter->value(), 2);
  counter->Reset();
}

// ---------------------------------------------------------------------------
// Determinism neutrality: instrumentation must not perturb training.
// ---------------------------------------------------------------------------

core::ContextAgentConfig TinyAgentConfig() {
  core::ContextAgentConfig config;
  config.obs_dim = envs::kLtsObsDim;
  config.action_dim = 1;
  config.use_extractor = false;
  config.policy_hidden = {16};
  config.value_hidden = {16};
  return config;
}

/// Runs a small LTS training loop and returns (final weights, returns).
std::pair<std::vector<double>, std::vector<double>> TrainTiny() {
  Rng rng(11);
  core::ContextAgent agent(TinyAgentConfig(), nullptr, rng);
  envs::LtsConfig env_config;
  env_config.num_users = 6;
  env_config.horizon = 5;
  envs::LtsEnv env_a(env_config);
  env_config.omega_g = 3.0;
  envs::LtsEnv env_b(env_config);

  core::TrainLoopConfig loop;
  loop.iterations = 4;
  loop.eval_every = 0;
  loop.sadae_steps_per_iteration = 0;
  loop.seed = 12;

  core::ZeroShotTrainer trainer(&agent, {&env_a, &env_b}, loop);
  const std::vector<core::IterationLog> logs = trainer.Train();
  std::vector<double> returns;
  for (const auto& log : logs) returns.push_back(log.train_return);
  return {agent.FlatParams(), returns};
}

TEST(DeterminismNeutrality, InstrumentedRunMatchesDisabledBitwise) {
  if (!Enabled()) GTEST_SKIP() << "observability compiled/switched off";
  EnabledGuard guard;

  // Run 1: everything on — metrics recording plus an active trace.
  SetEnabled(true);
  TraceRecorder::Global().Start();
  const auto instrumented = TrainTiny();
  TraceRecorder::Global().Stop();
  EXPECT_GT(TraceRecorder::Global().event_count(), 0);
  // The traced run went through the one rollout path and the update.
  const std::vector<std::string> spans = TraceRecorder::Global().SpanNames();
  for (const char* name : {"rollout/collect", "ppo/update"}) {
    EXPECT_NE(std::find(spans.begin(), spans.end(), name), spans.end())
        << "no " << name << " span in the traced run";
  }

  // Run 2: observability off at run time.
  SetEnabled(false);
  const auto plain = TrainTiny();

  ASSERT_EQ(instrumented.first.size(), plain.first.size());
  EXPECT_EQ(std::memcmp(instrumented.first.data(), plain.first.data(),
                        instrumented.first.size() * sizeof(double)),
            0)
      << "observability changed the trained weights";
  ASSERT_EQ(instrumented.second.size(), plain.second.size());
  EXPECT_EQ(std::memcmp(instrumented.second.data(), plain.second.data(),
                        instrumented.second.size() * sizeof(double)),
            0)
      << "observability changed the training returns";
}

// ---------------------------------------------------------------------------
// Iteration-log streaming (export_metrics_path).
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// MergeSnapshots: the cross-registry (per-shard / per-process)
// aggregation seam.
// ---------------------------------------------------------------------------

TEST(MergeSnapshots, CountersSumAndGaugesLastWin) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetCounter("serve.requests")->Add(3);
  b.GetCounter("serve.requests")->Add(4);
  a.GetCounter("only.in.a")->Add(1);
  b.GetCounter("only.in.b")->Add(2);
  a.GetGauge("serve.queue_depth")->Set(5.0);
  b.GetGauge("serve.queue_depth")->Set(9.0);
  a.GetGauge("only.gauge.a")->Set(1.5);

  const MetricsSnapshot merged =
      MergeSnapshots({a.Snapshot(), b.Snapshot()});

  ASSERT_EQ(merged.counters.size(), 3u);  // sorted by name
  EXPECT_EQ(merged.counters[0].name, "only.in.a");
  EXPECT_EQ(merged.counters[0].value, 1);
  EXPECT_EQ(merged.counters[1].name, "only.in.b");
  EXPECT_EQ(merged.counters[1].value, 2);
  EXPECT_EQ(merged.counters[2].name, "serve.requests");
  EXPECT_EQ(merged.counters[2].value, 7);

  ASSERT_EQ(merged.gauges.size(), 2u);
  EXPECT_EQ(merged.gauges[0].name, "only.gauge.a");
  EXPECT_EQ(merged.gauges[0].value, 1.5);
  EXPECT_EQ(merged.gauges[1].name, "serve.queue_depth");
  EXPECT_EQ(merged.gauges[1].value, 9.0);  // last part wins

  EXPECT_TRUE(MergeSnapshots({}).counters.empty());
}

TEST(MergeSnapshots, HistogramsMergeAtBucketGranularity) {
  // Record disjoint sample sets into two registries and the union into
  // a third: the merged histogram must answer every summary question
  // exactly like the single histogram holding the union.
  MetricsRegistry a;
  MetricsRegistry b;
  MetricsRegistry whole;
  for (int i = 1; i <= 100; ++i) {
    const double value = static_cast<double>(i * i) / 10.0;
    ((i % 2 == 0) ? a : b).GetHistogram("serve.latency_us")->Record(value);
    whole.GetHistogram("serve.latency_us")->Record(value);
  }

  const MetricsSnapshot merged =
      MergeSnapshots({a.Snapshot(), b.Snapshot()});
  const MetricsSnapshot reference = whole.Snapshot();
  ASSERT_EQ(merged.histograms.size(), 1u);
  const HistogramSample& m = merged.histograms[0];
  const HistogramSample& r = reference.histograms[0];
  EXPECT_EQ(m.count, r.count);
  EXPECT_EQ(m.min, r.min);
  EXPECT_EQ(m.max, r.max);
  // Weighted-average merge rounds differently from the union-order sum.
  EXPECT_NEAR(m.mean, r.mean, 1e-9 * std::abs(r.mean));
  EXPECT_EQ(m.p50, r.p50);
  EXPECT_EQ(m.p95, r.p95);
  EXPECT_EQ(m.p99, r.p99);
  ASSERT_EQ(m.buckets.size(), r.buckets.size());
  EXPECT_EQ(m.buckets, r.buckets);
}

TEST(MergeSnapshots, HandBuiltSamplesFallBackToConservativeQuantiles) {
  // Samples without bucket counts (not from a registry snapshot) cannot
  // be merged exactly; the fallback keeps counts additive and quantiles
  // conservative (max across parts).
  MetricsSnapshot a;
  MetricsSnapshot b;
  HistogramSample ha;
  ha.name = "x";
  ha.count = 10;
  ha.min = 1.0;
  ha.max = 50.0;
  ha.p50 = 5.0;
  ha.p99 = 40.0;
  HistogramSample hb = ha;
  hb.count = 20;
  hb.min = 0.5;
  hb.max = 80.0;
  hb.p50 = 9.0;
  hb.p99 = 70.0;
  a.histograms.push_back(ha);
  b.histograms.push_back(hb);

  const MetricsSnapshot merged = MergeSnapshots({a, b});
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].count, 30);
  EXPECT_EQ(merged.histograms[0].min, 0.5);
  EXPECT_EQ(merged.histograms[0].max, 80.0);
  EXPECT_EQ(merged.histograms[0].p50, 9.0);
  EXPECT_EQ(merged.histograms[0].p99, 70.0);
}

// ---------------------------------------------------------------------------
// Snapshot codec: the cross-process leg of aggregation. A snapshot
// encoded in one process and decoded in another must merge exactly like
// a local one.
// ---------------------------------------------------------------------------

TEST(SnapshotCodec, RoundTripIsExact) {
  MetricsRegistry registry;
  registry.GetCounter("serve.requests")->Add(123);
  registry.GetCounter("transport.requests")->Add(7);
  registry.GetGauge("serve.queue_depth")->Set(1.0 / 3.0);  // awkward bits
  for (int i = 1; i <= 64; ++i) {
    registry.GetHistogram("serve.latency_us")
        ->Record(static_cast<double>(i * i) / 7.0);
  }
  const MetricsSnapshot original = registry.Snapshot();

  MetricsSnapshot decoded;
  ASSERT_TRUE(DecodeSnapshot(EncodeSnapshot(original), &decoded));

  ASSERT_EQ(decoded.counters.size(), original.counters.size());
  for (size_t i = 0; i < original.counters.size(); ++i) {
    EXPECT_EQ(decoded.counters[i].name, original.counters[i].name);
    EXPECT_EQ(decoded.counters[i].value, original.counters[i].value);
  }
  ASSERT_EQ(decoded.gauges.size(), 1u);
  uint64_t got, want;
  std::memcpy(&got, &decoded.gauges[0].value, 8);
  std::memcpy(&want, &original.gauges[0].value, 8);
  EXPECT_EQ(got, want);  // bit-exact, not just approximately equal
  ASSERT_EQ(decoded.histograms.size(), 1u);
  const HistogramSample& h = decoded.histograms[0];
  const HistogramSample& ref = original.histograms[0];
  EXPECT_EQ(h.count, ref.count);
  EXPECT_EQ(h.p50, ref.p50);
  EXPECT_EQ(h.p99, ref.p99);
  EXPECT_EQ(h.buckets, ref.buckets);  // merge stays bucket-exact

  // The decoded copy merges like the local one would.
  MetricsRegistry local;
  local.GetCounter("serve.requests")->Add(1);
  const MetricsSnapshot merged =
      MergeSnapshots({decoded, local.Snapshot()});
  EXPECT_EQ(merged.counters[0].value, 124);  // sorted: serve.requests first
}

TEST(SnapshotCodec, EmptySnapshotRoundTrips) {
  MetricsSnapshot decoded;
  decoded.counters.push_back({"stale", 1});  // must be cleared by decode
  ASSERT_TRUE(DecodeSnapshot(EncodeSnapshot(MetricsSnapshot{}), &decoded));
  EXPECT_TRUE(decoded.counters.empty());
  EXPECT_TRUE(decoded.gauges.empty());
  EXPECT_TRUE(decoded.histograms.empty());
}

TEST(SnapshotCodec, MalformedInputRejectedWithoutTouchingOutput) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(5);
  registry.GetHistogram("h")->Record(2.0);
  const std::string good = EncodeSnapshot(registry.Snapshot());

  MetricsSnapshot out;
  out.counters.push_back({"sentinel", 9});

  // Truncations at every prefix length.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(DecodeSnapshot(good.substr(0, cut), &out)) << "cut=" << cut;
  }
  // Trailing garbage.
  EXPECT_FALSE(DecodeSnapshot(good + "x", &out));
  // Bad magic.
  std::string bad = good;
  bad[0] = 'Z';
  EXPECT_FALSE(DecodeSnapshot(bad, &out));
  // Future codec version.
  bad = good;
  bad[4] = 99;
  EXPECT_FALSE(DecodeSnapshot(bad, &out));
  // Implausible count (first section's u32 count forced huge).
  bad = good;
  bad[6] = '\xff';
  bad[7] = '\xff';
  bad[8] = '\xff';
  bad[9] = '\xff';
  EXPECT_FALSE(DecodeSnapshot(bad, &out));

  // Every failure above left the output untouched.
  ASSERT_EQ(out.counters.size(), 1u);
  EXPECT_EQ(out.counters[0].name, "sentinel");
}

// ---------------------------------------------------------------------------
// Trace span args.
// ---------------------------------------------------------------------------

TEST(TraceRecorder, SpanArgsSurfaceInChromeTraceArgsMap) {
  EnabledGuard guard;
  SetEnabled(true);
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  {
    S2R_TRACE_SPAN("test/plain_span");
    S2R_TRACE_SPAN("test/one_arg", "shard", 3.0);
    S2R_TRACE_SPAN("test/four_args", "a", 1.0, "b", 2.5, "c", -3.0, "d",
                   4096.0);
    S2R_TRACE_SPAN("test/nan_arg", "bad",
                   std::numeric_limits<double>::quiet_NaN());
  }
  recorder.Stop();
  ASSERT_GE(recorder.event_count(), 4);

  const std::string json = recorder.ToChromeTraceJson();
  std::string error;
  ASSERT_TRUE(JsonValidate(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"args\":{\"shard\":3}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"args\":{\"a\":1,\"b\":2.5,\"c\":-3,\"d\":4096}"),
            std::string::npos)
      << json;
  // Non-finite values have no JSON literal; they export as null.
  EXPECT_NE(json.find("\"args\":{\"bad\":null}"), std::string::npos) << json;
  // A span without args carries no args map at all.
  const size_t noargs = json.find("\"test/plain_span\"");
  ASSERT_NE(noargs, std::string::npos);
  const size_t end = json.find('}', noargs);
  EXPECT_EQ(json.substr(noargs, end - noargs).find("args"),
            std::string::npos);
}

TEST(TraceRecorder, SpanArgsDroppedWhenRecorderInactive) {
  EnabledGuard guard;
  SetEnabled(true);
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  recorder.Stop();
  const int64_t before = recorder.event_count();
  {
    S2R_TRACE_SPAN("test/ignored_args", "k", 1.0);
  }
  EXPECT_EQ(recorder.event_count(), before);
}

TEST(IterationLogExporter, WritesFlushedJsonlAndCsv) {
  ScratchDir dir("iteration_export");
  const std::string stem = (dir.path() / "train_log").string();
  experiments::IterationLogExporter exporter(stem);
  ASSERT_TRUE(exporter.ok());

  core::IterationLog log;
  log.iteration = 0;
  log.train_return = 1.5;
  log.policy_loss = -0.25;
  exporter.Write(log);  // eval_return / sadae_loss stay NaN -> null
  log.iteration = 1;
  log.eval_return = 2.0;
  exporter.Write(log);

  // Flushed per row: readable without destroying the exporter (the
  // "killed run keeps partial history" property).
  std::ifstream jsonl(exporter.jsonl_path());
  ASSERT_TRUE(jsonl.good());
  std::string line;
  int lines = 0;
  while (std::getline(jsonl, line)) {
    std::string error;
    EXPECT_TRUE(JsonValidate(line, &error)) << error << "\n" << line;
    ++lines;
  }
  EXPECT_EQ(lines, 2);

  std::ifstream csv(exporter.csv_path());
  ASSERT_TRUE(csv.good());
  std::getline(csv, line);
  EXPECT_EQ(line,
            "iteration,train_return,eval_return,policy_loss,value_loss,"
            "entropy,approx_kl,sadae_loss");
  int rows = 0;
  while (std::getline(csv, line)) ++rows;
  EXPECT_EQ(rows, 2);

  // First record's NaN fields serialized as null in JSONL.
  std::ifstream again(exporter.jsonl_path());
  std::getline(again, line);
  EXPECT_NE(line.find("\"eval_return\":null"), std::string::npos);
}

TEST(IterationLogExporter, LtsPipelineStreamsPerIteration) {
  ScratchDir dir("lts_metrics");
  const std::string stem = (dir.path() / "lts_run").string();

  experiments::LtsExperimentConfig config;
  config.num_users = 6;
  config.horizon = 5;
  config.iterations = 3;
  config.eval_every = 3;
  config.eval_episodes = 1;
  config.sadae_pretrain_epochs = 1;
  config.export_metrics_path = stem;
  config.seed = 5;
  experiments::RunLtsVariant(baselines::AgentVariant::kDirect, {-4.0},
                             config);

  std::ifstream jsonl(stem + ".jsonl");
  ASSERT_TRUE(jsonl.good()) << "pipeline did not write " << stem
                            << ".jsonl";
  std::string line;
  int lines = 0;
  while (std::getline(jsonl, line)) {
    std::string error;
    EXPECT_TRUE(JsonValidate(line, &error)) << error;
    ++lines;
  }
  EXPECT_EQ(lines, config.iterations);
  std::ifstream csv(stem + ".csv");
  ASSERT_TRUE(csv.good());
  int csv_lines = 0;
  while (std::getline(csv, line)) ++csv_lines;
  EXPECT_EQ(csv_lines, config.iterations + 1);  // header + rows
}

// ---------------------------------------------------------------------------
// Exemplar reservoirs: the per-bucket (value, trace_id, tags) samples
// that turn an aggregate p99 into a findable request.
// ---------------------------------------------------------------------------

TEST(LogHistogramExemplars, RecordAndReadBackWithTags) {
  LogHistogram histogram;
  EXPECT_TRUE(histogram.Exemplars().empty());

  histogram.RecordWithExemplar(37.0, 0xDEADBEEFu, "shard", 3.0, "batch",
                               17.0);
  ASSERT_EQ(histogram.count(), 1);  // aggregate recorded too

  const std::vector<ExemplarSample> exemplars = histogram.Exemplars();
  ASSERT_EQ(exemplars.size(), 1u);
  EXPECT_DOUBLE_EQ(exemplars[0].value, 37.0);
  EXPECT_EQ(exemplars[0].trace_id, 0xDEADBEEFu);
  ASSERT_EQ(exemplars[0].tags.size(), 2u);
  EXPECT_EQ(exemplars[0].tags[0].name, "shard");
  EXPECT_DOUBLE_EQ(exemplars[0].tags[0].value, 3.0);
  EXPECT_EQ(exemplars[0].tags[1].name, "batch");
  EXPECT_DOUBLE_EQ(exemplars[0].tags[1].value, 17.0);
  // 37.0 lives in bucket [32, 64).
  EXPECT_GE(exemplars[0].bucket, 1);
  EXPECT_LT(exemplars[0].bucket, LogHistogram::kBuckets);

  histogram.Reset();
  EXPECT_TRUE(histogram.Exemplars().empty());
}

TEST(LogHistogramExemplars, ReservoirRotatesAndKeepsMostRecent) {
  LogHistogram histogram;
  // All samples land in one bucket [32, 64): the reservoir holds at most
  // kExemplarSlots of them and rotation keeps the most recent write.
  for (uint64_t i = 1; i <= 20; ++i) {
    histogram.RecordWithExemplar(32.0 + static_cast<double>(i % 8), i);
  }
  const std::vector<ExemplarSample> exemplars = histogram.Exemplars();
  ASSERT_FALSE(exemplars.empty());
  EXPECT_LE(exemplars.size(),
            static_cast<size_t>(LogHistogram::kExemplarSlots));
  bool saw_recent = false;
  for (const ExemplarSample& e : exemplars) {
    EXPECT_GE(e.trace_id, 1u);
    EXPECT_LE(e.trace_id, 20u);
    if (e.trace_id == 20u) saw_recent = true;
  }
  EXPECT_TRUE(saw_recent) << "rotation should retain the last write";
}

TEST(LogHistogramExemplars, ConcurrentWritesStayInternallyConsistent) {
  LogHistogram histogram;
  // Writers encode (value bucket, payload) redundantly: trace id mirrors
  // the recorded value, so a torn exemplar read would surface as a
  // mismatched pair even under heavy slot contention.
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&histogram, w] {
      for (int i = 0; i < 2000; ++i) {
        const double value = static_cast<double>((w * 2000 + i) % 100) + 1.0;
        histogram.RecordWithExemplar(
            value, static_cast<uint64_t>(value * 1000.0), "value", value);
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const ExemplarSample& e : histogram.Exemplars()) {
        ASSERT_EQ(e.trace_id,
                  static_cast<uint64_t>(e.value * 1000.0))
            << "torn exemplar read";
        ASSERT_EQ(e.tags.size(), 1u);
        ASSERT_DOUBLE_EQ(e.tags[0].value, e.value);
      }
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(histogram.count(), 4 * 2000);  // aggregates are never dropped
  EXPECT_FALSE(histogram.Exemplars().empty());
}

TEST(MetricsSnapshot, CarriesExemplarsIntoJsonAsDecimalStrings) {
  MetricsRegistry registry;
  registry.GetHistogram("serve.latency_us")
      ->RecordWithExemplar(40.0, 0xFFFFFFFFFFFFFFFFull, "shard", 2.0);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  ASSERT_EQ(snapshot.histograms[0].exemplars.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].exemplars[0].trace_id,
            0xFFFFFFFFFFFFFFFFull);

  const std::string json = snapshot.ToJson();
  std::string error;
  ASSERT_TRUE(JsonValidate(json, &error)) << error << "\n" << json;
  // u64 trace ids do not fit a JSON double: exported as decimal strings.
  EXPECT_NE(json.find("\"trace_id\":\"18446744073709551615\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"exemplars\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\":2"), std::string::npos);
}

TEST(MergeSnapshots, ConcatenatesExemplarsAcrossParts) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetHistogram("serve.latency_us")->RecordWithExemplar(10.0, 111);
  b.GetHistogram("serve.latency_us")->RecordWithExemplar(500.0, 222);

  const MetricsSnapshot merged =
      MergeSnapshots({a.Snapshot(), b.Snapshot()});
  ASSERT_EQ(merged.histograms.size(), 1u);
  const std::vector<ExemplarSample>& exemplars =
      merged.histograms[0].exemplars;
  ASSERT_EQ(exemplars.size(), 2u);
  bool saw_a = false, saw_b = false;
  for (const ExemplarSample& e : exemplars) {
    if (e.trace_id == 111) saw_a = true;
    if (e.trace_id == 222) saw_b = true;
  }
  EXPECT_TRUE(saw_a && saw_b);
  // Ordered by bucket after the merge re-sort.
  for (size_t i = 1; i < exemplars.size(); ++i) {
    EXPECT_LE(exemplars[i - 1].bucket, exemplars[i].bucket);
  }
}

// ---------------------------------------------------------------------------
// Snapshot codec v2: exemplar sections and the one-version contract.
// ---------------------------------------------------------------------------

TEST(SnapshotCodecV2, ExemplarRoundTripIsExact) {
  MetricsRegistry registry;
  registry.GetCounter("transport.requests")->Add(9);
  registry.GetHistogram("transport.request_us")
      ->RecordWithExemplar(123.5, 0xAB54A98CEB1F0AD2ull, "shard", 1.0,
                           "batch", 8.0);
  const MetricsSnapshot original = registry.Snapshot();

  const std::string encoded = EncodeSnapshot(original);
  ASSERT_GE(encoded.size(), 6u);
  EXPECT_EQ(encoded[4], 2);  // the one codec version
  EXPECT_EQ(encoded[5], 0);

  MetricsSnapshot decoded;
  ASSERT_EQ(DecodeSnapshotEx(encoded, &decoded),
            SnapshotDecodeStatus::kOk);
  ASSERT_EQ(decoded.histograms.size(), 1u);
  ASSERT_EQ(decoded.histograms[0].exemplars.size(), 1u);
  const ExemplarSample& e = decoded.histograms[0].exemplars[0];
  EXPECT_EQ(e.trace_id, 0xAB54A98CEB1F0AD2ull);
  uint64_t got, want;
  const double original_value = original.histograms[0].exemplars[0].value;
  std::memcpy(&got, &e.value, 8);
  std::memcpy(&want, &original_value, 8);
  EXPECT_EQ(got, want);  // bit-exact value
  ASSERT_EQ(e.tags.size(), 2u);
  EXPECT_EQ(e.tags[0].name, "shard");
  EXPECT_EQ(e.tags[1].name, "batch");
  EXPECT_DOUBLE_EQ(e.tags[1].value, 8.0);
}

TEST(SnapshotCodecV2, FutureVersionIsTypedRefusalNotAGuess) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(1);
  const std::string good = EncodeSnapshot(registry.Snapshot());
  ASSERT_EQ(good[4], 2);  // exemplar-free snapshots are version 2 too

  MetricsSnapshot out;
  out.counters.push_back({"sentinel", 7});
  // Every version but 2 — the pre-exemplar 1, a never-specified 0, the
  // next one up, one far in the future — is refused typed, never
  // guessed at, and leaves the output untouched.
  for (const uint8_t version : {0, 1, 3, 99}) {
    std::string encoded = good;
    encoded[4] = static_cast<char>(version);
    EXPECT_EQ(DecodeSnapshotEx(encoded, &out),
              SnapshotDecodeStatus::kUnsupportedVersion)
        << "version=" << static_cast<int>(version);
    ASSERT_EQ(out.counters.size(), 1u);
    EXPECT_EQ(out.counters[0].name, "sentinel");
  }

  // Section 1 (exemplars) is the only section there is: any other id is
  // damage, not something to skip.
  std::string unknown_section = good;
  AppendU16(&unknown_section, 2);
  AppendU32(&unknown_section, 0);
  EXPECT_EQ(DecodeSnapshotEx(unknown_section, &out),
            SnapshotDecodeStatus::kMalformed);

  // Bad magic is typed separately.
  std::string bad_magic = good;
  bad_magic[0] = 'Z';
  EXPECT_EQ(DecodeSnapshotEx(bad_magic, &out),
            SnapshotDecodeStatus::kBadMagic);
  EXPECT_EQ(out.counters[0].name, "sentinel");
}

TEST(SnapshotCodecV2, TruncationFuzzOverExemplarPayload) {
  MetricsRegistry registry;
  registry.GetCounter("transport.requests")->Add(3);
  registry.GetHistogram("transport.request_us")
      ->RecordWithExemplar(50.0, 777, "shard", 0.0);
  const MetricsSnapshot original = registry.Snapshot();
  const std::string good = EncodeSnapshot(original);
  ASSERT_EQ(good[4], 2);

  // The one prefix that is NOT damage: cutting exactly at the end of the
  // base body leaves a complete "v2 with zero trailing sections" payload
  // (sections are self-describing, there is no section count to
  // contradict). Its length equals the exemplar-free encoding's.
  MetricsSnapshot stripped = original;
  for (HistogramSample& h : stripped.histograms) h.exemplars.clear();
  const size_t base_end = EncodeSnapshot(stripped).size();
  MetricsSnapshot at_boundary;
  EXPECT_EQ(DecodeSnapshotEx(good.substr(0, base_end), &at_boundary),
            SnapshotDecodeStatus::kOk);
  EXPECT_TRUE(at_boundary.histograms[0].exemplars.empty());

  MetricsSnapshot out;
  out.counters.push_back({"sentinel", 9});
  // Every other proper prefix must produce a typed failure, never a
  // crash and never a partial commit into `out`.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    if (cut == base_end) continue;
    const SnapshotDecodeStatus status =
        DecodeSnapshotEx(good.substr(0, cut), &out);
    EXPECT_TRUE(status == SnapshotDecodeStatus::kBadMagic ||
                status == SnapshotDecodeStatus::kMalformed)
        << "cut=" << cut;
  }
  // Trailing garbage after the last section is framing damage too.
  EXPECT_EQ(DecodeSnapshotEx(good + "x", &out),
            SnapshotDecodeStatus::kMalformed);
  ASSERT_EQ(out.counters.size(), 1u);
  EXPECT_EQ(out.counters[0].name, "sentinel");
}

// ---------------------------------------------------------------------------
// Prometheus text exposition (what `curl /metrics` returns).
// ---------------------------------------------------------------------------

TEST(PrometheusText, ExportsTypedSeriesAndExemplarComments) {
  MetricsRegistry registry;
  registry.GetCounter("transport.requests")->Add(42);
  registry.GetGauge("serve.queue_depth")->Set(1.5);
  registry.GetHistogram("serve.latency_us")
      ->RecordWithExemplar(100.0, 555, "shard", 2.0);

  const std::string text = registry.Snapshot().ToPrometheusText();
  // Dots become underscores; each metric leads with a # TYPE line.
  EXPECT_NE(text.find("# TYPE transport_requests counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("transport_requests 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_queue_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_queue_depth 1.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_latency_us summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_us{quantile=\"0.99\"} 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_us_sum 100\n"), std::string::npos);
  EXPECT_NE(text.find("serve_latency_us_count 1\n"), std::string::npos);
  // Exemplars ride as comments: scrapers skip them, humans don't.
  EXPECT_NE(text.find("# exemplar serve_latency_us"), std::string::npos);
  EXPECT_NE(text.find("trace_id=555"), std::string::npos);
  EXPECT_NE(text.find("shard=2"), std::string::npos);
  // Every line is either a comment or `name value` — no stray blanks.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) EXPECT_FALSE(line.empty());
}

TEST(PrometheusText, MetricNameSanitization) {
  MetricsRegistry registry;
  registry.GetCounter("0weird-name.x")->Add(1);
  const std::string text = registry.Snapshot().ToPrometheusText();
  // Leading digit gets a '_' prefix; '-' and '.' become '_'.
  EXPECT_NE(text.find("_0weird_name_x 1\n"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// MetricsExporter: the background observer feeding JSONL and /metrics.
// ---------------------------------------------------------------------------

TEST(MetricsExporter, TickOnceSamplesRatesAndJsonl) {
  EnabledGuard guard;
  SetEnabled(true);
  ScratchDir dir("exporter_tick");
  MetricsRegistry registry;
  registry.GetCounter("serve.requests")->Add(10);

  MetricsExporterConfig config;
  config.registry = &registry;
  config.jsonl_path = (dir.path() / "metrics.jsonl").string();
  MetricsExporter exporter(config);

  const ExporterSample first = exporter.TickOnce();
  EXPECT_EQ(first.seq, 1);
  registry.GetCounter("serve.requests")->Add(5);
  const ExporterSample second = exporter.TickOnce();
  EXPECT_EQ(second.seq, 2);
  EXPECT_GE(second.uptime_s, first.uptime_s);
  EXPECT_EQ(exporter.snapshots_taken(), 2);

  ExporterSample latest;
  ASSERT_TRUE(exporter.Latest(&latest));
  EXPECT_EQ(latest.seq, 2);

  // Rates come from the last two samples: 15 - 10 = 5.
  const std::vector<CounterRate> rates = exporter.LatestRates();
  bool found = false;
  for (const CounterRate& rate : rates) {
    if (rate.name == "serve.requests") {
      EXPECT_EQ(rate.delta, 5);
      EXPECT_GE(rate.per_sec, 0.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // Process gauges make merged multi-process views attributable.
  bool saw_pid = false, saw_seq = false, saw_uptime = false,
       saw_build = false;
  for (const GaugeSample& g : latest.snapshot.gauges) {
    if (g.name == "obs.pid") saw_pid = true;
    if (g.name == "obs.snapshot_seq") saw_seq = true;
    if (g.name == "obs.uptime_s") saw_uptime = true;
    if (g.name == "obs.build_info") saw_build = true;
  }
  EXPECT_TRUE(saw_pid && saw_seq && saw_uptime && saw_build);

  // JSONL: one valid object per line, flushed as it goes.
  std::ifstream jsonl(config.jsonl_path);
  ASSERT_TRUE(jsonl.good());
  std::string line;
  int lines = 0;
  while (std::getline(jsonl, line)) {
    std::string error;
    EXPECT_TRUE(JsonValidate(line, &error)) << error << "\n" << line;
    EXPECT_NE(line.find("\"seq\":"), std::string::npos);
    EXPECT_NE(line.find("\"metrics\":"), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 2);
  std::string error;
  EXPECT_TRUE(JsonValidate(MetricsExporter::JsonlLine(latest), &error))
      << error;
}

TEST(MetricsExporter, RingKeepsOnlyTheMostRecentSamples) {
  MetricsRegistry registry;
  MetricsExporterConfig config;
  config.registry = &registry;
  config.ring_capacity = 3;
  MetricsExporter exporter(config);
  for (int i = 0; i < 5; ++i) exporter.TickOnce();
  const std::vector<ExporterSample> history = exporter.History();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history.front().seq, 3);  // oldest surviving
  EXPECT_EQ(history.back().seq, 5);
  EXPECT_EQ(exporter.snapshots_taken(), 5);
}

TEST(MetricsExporter, RemoteSourcesMergeAndFlakySourceDegrades) {
  MetricsRegistry registry;
  registry.GetCounter("serve.requests")->Add(1);
  MetricsExporterConfig config;
  config.registry = &registry;
  config.process_gauges = false;
  MetricsExporter exporter(config);
  // A healthy remote part sums into the merged view...
  exporter.AddSource([](MetricsSnapshot* out) {
    MetricsRegistry remote;
    remote.GetCounter("serve.requests")->Add(41);
    *out = remote.Snapshot();
    return true;
  });
  // ...and a flaky one degrades that sample, never the run.
  exporter.AddSource([](MetricsSnapshot*) { return false; });

  const ExporterSample sample = exporter.TickOnce();
  ASSERT_EQ(sample.snapshot.counters.size(), 1u);
  EXPECT_EQ(sample.snapshot.counters[0].value, 42);
}

TEST(MetricsExporter, StartStopAlwaysYieldsAFinalSample) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(1);
  MetricsExporterConfig config;
  config.registry = &registry;
  config.interval_ms = 60'000;  // far longer than the test: Stop() flushes
  MetricsExporter exporter(config);
  exporter.Start();
  EXPECT_TRUE(exporter.running());
  exporter.Start();  // idempotent
  exporter.Stop();
  EXPECT_FALSE(exporter.running());
  EXPECT_GE(exporter.snapshots_taken(), 1);
  ExporterSample latest;
  EXPECT_TRUE(exporter.Latest(&latest));
  exporter.Stop();  // idempotent
}

// ---------------------------------------------------------------------------
// Trace-id scoping: the thread-local request identity the whole
// observability plane shares.
// ---------------------------------------------------------------------------

TEST(TraceIdScope, NestsAndRestores) {
  EXPECT_EQ(CurrentTraceId(), 0u);
  {
    TraceIdScope outer(100);
    EXPECT_EQ(CurrentTraceId(), 100u);
    {
      TraceIdScope inner(200);
      EXPECT_EQ(CurrentTraceId(), 200u);
    }
    EXPECT_EQ(CurrentTraceId(), 100u);
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
}

TEST(TraceIdScope, IsPerThread) {
  TraceIdScope scope(999);
  uint64_t seen_on_other_thread = 1;
  std::thread other(
      [&seen_on_other_thread] { seen_on_other_thread = CurrentTraceId(); });
  other.join();
  EXPECT_EQ(seen_on_other_thread, 0u);  // scope does not leak across threads
  EXPECT_EQ(CurrentTraceId(), 999u);
}

TEST(TraceIdScope, SpansCaptureTheCurrentIdIntoChromeJson) {
  EnabledGuard guard;
  SetEnabled(true);
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  {
    TraceIdScope scope(0xABCDEFull);
    S2R_TRACE_SPAN("test/traced_span");
  }
  {
    S2R_TRACE_SPAN("test/untraced_span");
  }
  recorder.Stop();

  bool saw_traced = false, saw_untraced = false;
  for (const TraceEvent& event : recorder.EventsSnapshot()) {
    if (std::string(event.name) == "test/traced_span") {
      EXPECT_EQ(event.trace_id, 0xABCDEFull);
      saw_traced = true;
    }
    if (std::string(event.name) == "test/untraced_span") {
      EXPECT_EQ(event.trace_id, 0u);
      saw_untraced = true;
    }
  }
  EXPECT_TRUE(saw_traced && saw_untraced);

  const std::string json = recorder.ToChromeTraceJson();
  std::string error;
  ASSERT_TRUE(JsonValidate(json, &error)) << error;
  EXPECT_NE(json.find("\"trace_id\":\"11259375\""), std::string::npos)
      << json;  // 0xABCDEF in the decimal-string encoding
}

}  // namespace
}  // namespace obs
}  // namespace sim2rec
