// Population-scale serving benchmark: a closed-loop load driver
// (src/load) pushes 100k+ concurrent Zipf-skewed sessions through a
// sharded ServeRouter while an Autoscaler widens and shrinks the
// topology under it. Three things are measured / asserted:
//
//   1. Reproducibility: the same (seed, config) produces the identical
//      request sequence — order-independent checksum over every issued
//      request — at 1 worker thread and at 4. The tick barrier plus
//      driver-thread RNG draws are what make this hold; this is the
//      property that lets a load result be replayed and debugged.
//   2. Scale: a burst-shaped arrival process drives peak concurrent
//      sessions past the mode's floor (100k default, 10k --smoke)
//      against a live 2-shard router, with throughput and latency
//      quantiles reported from the client's vantage point.
//   3. Elasticity: the Autoscaler, polled once per tick, must scale
//      the router out during the ramp and back in during the drain —
//      with every session surviving each reshard (the driver's
//      accounting invariant plus zero failed requests prove no session
//      was stranded).
//
// Emits results/BENCH_serve_scale.json (validated JSON): config, run
// counters, latency quantiles, checksums, autoscaler actions, and the
// per-tick timeline (active sessions / shard count / queue depth) the
// scale-over-time plots come from.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/context_agent.h"
#include "infer/plan.h"
#include "load/client_pool.h"
#include "load/flaky_service.h"
#include "load/population_driver.h"
#include "obs/exporter.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "sadae/sadae.h"
#include "serve/autoscaler.h"
#include "serve/checkpoint.h"
#include "serve/checkpoint_watcher.h"
#include "serve/serve_router.h"
#include "serve/trajectory_log.h"
#include "transport/http_endpoint.h"
#include "transport/policy_client.h"
#include "transport/policy_server.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace sim2rec {
namespace {

constexpr int kObsDim = 8;

core::ContextAgentConfig TinyAgentConfig() {
  core::ContextAgentConfig config;
  config.obs_dim = kObsDim;
  config.action_dim = 1;
  config.use_extractor = true;
  config.lstm_hidden = 8;
  config.f_hidden = {8};
  config.f_out = 4;
  config.policy_hidden = {16};
  config.value_hidden = {16};
  return config;
}

sadae::SadaeConfig TinySadaeConfig() {
  sadae::SadaeConfig config;
  config.state_dim = kObsDim;  // state-only SADAE variant
  config.latent_dim = 3;
  config.encoder_hidden = {16};
  config.decoder_hidden = {16};
  return config;
}

serve::ServeRouterConfig RouterConfig() {
  serve::ServeRouterConfig config;
  config.shard.max_batch_size = 64;
  config.shard.action_low = {-4.0};
  config.shard.action_high = {4.0};
  // Population scale: hold every resident session (abandoned ones
  // accumulate — TTL is exercised in tests, not here) without LRU
  // churn, and never expire.
  config.shard.sessions.max_bytes = size_t{1} << 30;
  config.shard.sessions.ttl_ms = 0;
  return config;
}

struct Mode {
  const char* name;
  int ticks;
  int drain_ticks;
  double base_rate;
  uint64_t target_peak;  // peak concurrent sessions floor
};

/// One-shot HTTP GET against the bench's own metrics endpoint — the
/// in-process equivalent of the curl probes in
/// scripts/run_obs_live_smoke.sh. Returns the full response (status
/// line + headers + body), empty on any I/O failure.
std::string HttpGet(int port, const std::string& target) {
  transport::TcpConnection conn =
      transport::TcpConnection::Connect("127.0.0.1", port, 2000);
  if (!conn.valid()) return "";
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  if (conn.WriteFull(request.data(), request.size(), 2000) !=
      transport::IoStatus::kOk) {
    return "";
  }
  std::string response;
  char buffer[4096];
  size_t n = 0;
  while (conn.ReadSome(buffer, sizeof(buffer), 2000, &n) ==
         transport::IoStatus::kOk) {
    response.append(buffer, n);
  }
  return response;
}

/// Smallest bucket index holding the p99 mass of a snapshotted
/// histogram (the bucket exemplar triage starts from).
int P99Bucket(const obs::HistogramSample& histogram) {
  int64_t total = 0;
  for (const int64_t c : histogram.buckets) total += c;
  if (total == 0) return -1;
  const int64_t rank =
      static_cast<int64_t>(0.99 * static_cast<double>(total));
  int64_t seen = 0;
  for (size_t b = 0; b < histogram.buckets.size(); ++b) {
    seen += histogram.buckets[b];
    if (seen > rank) return static_cast<int>(b);
  }
  return static_cast<int>(histogram.buckets.size()) - 1;
}

std::string U64(uint64_t v) { return std::to_string(v); }

void AppendKv(std::string* json, const char* key, const std::string& value,
              bool quote, bool last = false) {
  *json += "    \"";
  *json += key;
  *json += "\": ";
  if (quote) *json += '"';
  *json += value;
  if (quote) *json += '"';
  if (!last) *json += ',';
  *json += '\n';
}

int Run(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarn);
  const bool smoke = HasFlag(argc, argv, "--smoke");
  const bool full = HasFlag(argc, argv, "--full");
  // --metrics-port N: serve GET /metrics, /metrics.json and /healthz on
  // 127.0.0.1:N for the duration of the run (0 = pick an ephemeral
  // port; the chosen URL is printed). Absent = no endpoint.
  const int metrics_port = GetFlagInt(argc, argv, "--metrics-port", -1);
  // Session shape shared by every phase: 2-3 steps with long think
  // times, so populations pile high without a proportional request
  // bill (peak_active ~ rate * steps * mean_gap).
  // Full mode targets a million concurrent sessions: sessions live
  // ~17.5 ticks (2-3 steps, mean think gap 7), so 60k arrivals/tick
  // hold ~1.05M steady plus the burst on top. Feasible on one box
  // because the shards serve from the shared frozen float32 plan.
  const Mode mode = smoke ? Mode{"smoke", 25, 45, 900.0, 10000}
                  : full  ? Mode{"full", 60, 90, 60000.0, 1000000}
                          : Mode{"default", 40, 70, 6500.0, 100000};

  Rng rng(21);
  sadae::Sadae sadae_model(TinySadaeConfig(), rng);
  core::ContextAgent agent(TinyAgentConfig(), &sadae_model, rng);
  std::printf("bench_serve_scale — population load + autoscaling (%s)\n\n",
              mode.name);

  const auto base_driver_config = [&] {
    load::PopulationDriverConfig config;
    config.seed = 4242;
    config.obs_dim = kObsDim;
    config.action_dim = 1;
    config.min_steps = 2;
    config.max_steps = 3;
    config.max_think_ticks = 12;
    config.abandon_prob = 0.25;
    config.zipf_s = 1.05;
    // Keep the id space ~8x the peak population so session-affinity
    // rehash probing resolves collisions in O(1) expected probes even
    // with Zipf saturating the hot low-rank ids.
    config.user_space =
        std::max(uint64_t{1} << 20, 8 * mode.target_peak);
    return config;
  };

  // --- --transport: the same closed-loop population, but across the
  // process boundary — PopulationDriver workers -> pooled
  // PolicyClients -> loopback PolicyServer -> 2-shard router. The
  // request stream is a pure function of (seed, config), so it must
  // checksum identically to an in-process run of the same config; and
  // because the wire carries raw IEEE-754 bytes (and the float32 plan
  // computes every row independently), the reply
  // checksum must match bit for bit too.
  if (HasFlag(argc, argv, "--transport")) {
    const int kThreads = 4;
    const auto transport_config = [&] {
      load::PopulationDriverConfig config = base_driver_config();
      config.ticks = 20;
      config.drain_ticks = 45;
      config.arrival.kind = load::ArrivalKind::kSteady;
      config.arrival.base_rate = 150.0;
      config.num_threads = kThreads;
      config.record_timeline = false;
      return config;
    };
    load::PopulationReport inproc;
    {
      serve::ServeRouter router(&agent, RouterConfig(),
                                /*initial_shards=*/2);
      load::PopulationDriver driver(&router, transport_config());
      inproc = driver.Run();
    }
    load::PopulationReport wire;
    {
      serve::ServeRouter router(&agent, RouterConfig(),
                                /*initial_shards=*/2);
      transport::PolicyServerConfig server_config;
      server_config.num_workers = kThreads + 1;
      transport::PolicyServer server(&router, server_config);
      if (!server.Start()) {
        std::printf("FAIL: could not start the loopback PolicyServer\n");
        return 1;
      }
      load::ClientPool pool(server.port(), kThreads);
      load::PopulationDriver driver(&pool, transport_config());
      wire = driver.Run();
      server.Shutdown();
    }
    std::printf("transport closed loop (steady %0.f/tick, %d threads, "
                "pooled clients over loopback TCP):\n",
                150.0, kThreads);
    std::printf("  %-11s %8s %10s %10s %9s %9s\n", "path", "sessions",
                "requests", "req/sec", "p50(us)", "p99(us)");
    std::printf("  %-11s %8llu %10llu %10.0f %9.0f %9.0f\n", "in-process",
                static_cast<unsigned long long>(inproc.sessions_started),
                static_cast<unsigned long long>(inproc.requests_ok),
                inproc.req_per_sec, inproc.p50_us, inproc.p99_us);
    std::printf("  %-11s %8llu %10llu %10.0f %9.0f %9.0f\n", "loopback",
                static_cast<unsigned long long>(wire.sessions_started),
                static_cast<unsigned long long>(wire.requests_ok),
                wire.req_per_sec, wire.p50_us, wire.p99_us);
    bool transport_ok = true;
    if (!wire.Consistent() || wire.requests_failed != 0 ||
        wire.sessions_aborted != 0) {
      std::printf("FAIL: lost work across the transport (failed=%llu "
                  "aborted=%llu)\n",
                  static_cast<unsigned long long>(wire.requests_failed),
                  static_cast<unsigned long long>(wire.sessions_aborted));
      transport_ok = false;
    }
    if (wire.request_checksum != inproc.request_checksum) {
      std::printf("FAIL: request stream diverged across the transport\n");
      transport_ok = false;
    }
    if (wire.reply_checksum != inproc.reply_checksum) {
      std::printf("FAIL: replies diverged across the transport (the wire "
                  "must carry actions bit-exactly)\n");
      transport_ok = false;
    }
    if (!transport_ok) return 1;
    std::printf("request and reply checksums identical across the "
                "process boundary\n\n");

    // --- Observability under an injected latency fault. Same wire
    // topology, but the server now fronts a FlakyPolicyService that
    // sleeps every nth Act — a synthetic latency tail, run after the
    // checksum phases so fault effects never touch them. While the
    // population runs, a MetricsExporter pulls the server's merged
    // view over the wire (FetchMetrics) once per driver tick into an
    // append-only JSONL file, and an HTTP endpoint serves the
    // exporter's cached sample to curl (the bench self-probes it the
    // way scripts/run_obs_live_smoke.sh does from outside). The run
    // must leave a p99-bucket latency exemplar whose trace id matches
    // a server-side transport/act span — the exemplar -> trace
    // correlation chain the OPERATIONS.md triage recipe walks.
    obs::MetricsRegistry::Global().ResetAll();  // flaky-run-only view
    obs::TraceRecorder::Global().Start();
    const char* jsonl_path = "results/BENCH_serve_scale_metrics.jsonl";
    std::filesystem::create_directories("results");
    std::filesystem::remove(jsonl_path);
    // The exporter's local registry is a fresh one holding only its
    // obs.* process gauges; the serving view arrives through the
    // remote source, like an ops box watching a serving tier.
    obs::MetricsRegistry ops_registry;
    obs::MetricsExporterConfig exporter_config;
    exporter_config.jsonl_path = jsonl_path;
    exporter_config.registry = &ops_registry;
    obs::MetricsExporter exporter(exporter_config);

    bool obs_ok = true;
    load::FlakyStats flaky_stats;
    load::PopulationReport fault_run;
    {
      serve::ServeRouter router(&agent, RouterConfig(),
                                /*initial_shards=*/2);
      load::FlakyConfig flaky_config;
      flaky_config.delay_every_n = 97;
      flaky_config.delay_ms = 25;
      load::FlakyPolicyService flaky(&router, flaky_config);
      transport::PolicyServerConfig server_config;
      server_config.num_workers = kThreads + 2;  // + the ops client
      server_config.metrics_source = [&router] {
        return obs::MergeSnapshots(
            {router.MergedMetrics(),
             obs::MetricsRegistry::Global().Snapshot()});
      };
      transport::PolicyServer server(&flaky, server_config);
      if (!server.Start()) {
        std::printf("FAIL: could not start the observed PolicyServer\n");
        return 1;
      }
      transport::PolicyClientConfig ops_config;
      ops_config.port = server.port();
      transport::PolicyClient ops_client(ops_config);
      exporter.AddSource([&ops_client](obs::MetricsSnapshot* snapshot) {
        return ops_client.FetchMetrics(snapshot) ==
               transport::TransportStatus::kOk;
      });

      transport::HttpMetricsConfig http_config;
      http_config.port = metrics_port >= 0 ? metrics_port : 0;
      transport::HttpMetricsServer http([&exporter] {
        obs::ExporterSample sample;
        exporter.Latest(&sample);  // empty snapshot until first tick
        return sample.snapshot;
      }, http_config);
      if (!http.Start()) {
        std::printf("FAIL: could not start the metrics endpoint\n");
        return 1;
      }
      std::printf("observability phase: injected delay %dms every %d "
                  "requests; metrics at %s/metrics\n",
                  flaky_config.delay_ms, flaky_config.delay_every_n,
                  http.url().c_str());
      // Flush so a supervising script sees the URL while the endpoint
      // is still alive (stdout is block-buffered into a file).
      std::fflush(stdout);

      load::ClientPool pool(server.port(), kThreads);
      load::PopulationDriverConfig config = transport_config();
      config.tick_hook = [&exporter](int) { exporter.TickOnce(); };
      load::PopulationDriver driver(&pool, config);
      fault_run = driver.Run();
      exporter.TickOnce();  // final sample after the drain
      flaky_stats = flaky.stats();

      // Self-probe the live endpoint before tearing anything down.
      const std::string healthz = HttpGet(http.port(), "/healthz");
      const std::string metrics = HttpGet(http.port(), "/metrics");
      const std::string metrics_json =
          HttpGet(http.port(), "/metrics.json");
      if (healthz.find("200 OK") == std::string::npos ||
          healthz.find("ok") == std::string::npos) {
        std::printf("FAIL: /healthz probe failed\n");
        obs_ok = false;
      }
      if (metrics.find("200 OK") == std::string::npos ||
          metrics.find("transport_request_us") == std::string::npos) {
        std::printf("FAIL: /metrics probe missing live histograms\n");
        obs_ok = false;
      }
      const size_t json_body = metrics_json.find("\r\n\r\n");
      std::string json_error;
      if (json_body == std::string::npos ||
          !obs::JsonValidate(metrics_json.substr(json_body + 4),
                             &json_error)) {
        std::printf("FAIL: /metrics.json body is not valid JSON (%s)\n",
                    json_error.c_str());
        obs_ok = false;
      }
      http.Shutdown();
      server.Shutdown();
    }
    obs::TraceRecorder::Global().Stop();

    if (!fault_run.Consistent() || fault_run.sessions_aborted != 0) {
      std::printf("FAIL: lost sessions under the latency fault\n");
      obs_ok = false;
    }
    if (flaky_stats.injected_delays < 1) {
      std::printf("FAIL: the latency fault never fired\n");
      obs_ok = false;
    }

    // The correlation chain: find the server-side request histogram in
    // the exporter's last (wire-fetched) sample, locate its p99
    // bucket, and demand an exemplar at or above it whose trace id
    // also appears on a server-side transport/act span.
    obs::ExporterSample last_sample;
    if (!exporter.Latest(&last_sample)) {
      std::printf("FAIL: exporter took no samples\n");
      return 1;
    }
    const obs::HistogramSample* request_us = nullptr;
    for (const obs::HistogramSample& h : last_sample.snapshot.histograms) {
      if (h.name == "transport.request_us") request_us = &h;
    }
    if (request_us == nullptr || request_us->count == 0) {
      std::printf("FAIL: transport.request_us never crossed the wire\n");
      return 1;
    }
    const int p99_bucket = P99Bucket(*request_us);
    std::vector<obs::TraceEvent> spans =
        obs::TraceRecorder::Global().EventsSnapshot();
    uint64_t matched_trace_id = 0;
    for (const obs::ExemplarSample& exemplar : request_us->exemplars) {
      if (exemplar.bucket < p99_bucket || exemplar.trace_id == 0) continue;
      for (const obs::TraceEvent& span : spans) {
        if (std::string(span.name) == "transport/act" &&
            span.trace_id == exemplar.trace_id) {
          matched_trace_id = exemplar.trace_id;
          break;
        }
      }
      if (matched_trace_id != 0) break;
    }
    if (matched_trace_id == 0) {
      std::printf("FAIL: no p99-bucket exemplar (bucket >= %d) matches a "
                  "server-side transport/act span\n",
                  p99_bucket);
      obs_ok = false;
    } else {
      std::printf("p99 triage chain intact: exemplar trace id %llu "
                  "(bucket >= %d) matches a server-side span\n",
                  static_cast<unsigned long long>(matched_trace_id),
                  p99_bucket);
    }
    std::printf("exporter wrote %lld samples to %s\n",
                static_cast<long long>(exporter.snapshots_taken()),
                jsonl_path);
    if (!obs_ok) return 1;
    std::printf("observability under fault OK\n");
    return 0;
  }

  // --- --hot-swap: live checkpoint hot-swap under the population, the
  // train->serve loop closed end to end. Two runs of the identical
  // burst-shaped load:
  //
  //   baseline  — no watcher, no trajectory log.
  //   hot-swap  — a CheckpointWatcher polls a bundle directory every
  //               tick while a TrajectoryLog records every served
  //               request; training "publishes" two new generations of
  //               the same weights mid-burst (from the tick hook, so
  //               the swap tick is deterministic), and the watcher
  //               swaps the router onto each one at >= target_peak
  //               concurrent sessions.
  //
  // Pass criteria: zero failed requests and zero lost sessions through
  // both swaps; the request checksum matches the baseline (swaps don't
  // perturb the load); the REPLY checksum matches too — the swapped-in
  // plan was frozen from bit-identical weights, so any divergence
  // would mean a session's recurrent state was dropped or the swap
  // path is not bitwise-transparent. The plan pointer must change at
  // each swap while its weight checksum stays equal ("new plan object,
  // same weights" — proof the swap actually happened), and the
  // trajectory log must capture every request without dropping one.
  if (HasFlag(argc, argv, "--hot-swap")) {
    const int burst_start = mode.ticks / 3;
    const int burst_len = mode.ticks / 4;
    // Swap at the burst tail, where the concurrent population is near
    // its peak — that is the moment the floor assertion samples.
    const int swap_ticks[2] = {burst_start + burst_len - 1,
                               burst_start + burst_len + 2};
    const auto swap_driver_config = [&] {
      load::PopulationDriverConfig config = base_driver_config();
      config.ticks = mode.ticks;
      config.drain_ticks = mode.drain_ticks;
      config.arrival.kind = load::ArrivalKind::kBurst;
      // 1.25x the scale phase's rate: the floor below is asserted on
      // the *post-lifecycle* population at the swap ticks (sessions the
      // swap must actually carry across), which sits ~8% under the
      // intra-tick peak the scale phase measures.
      config.arrival.base_rate = 1.25 * mode.base_rate;
      config.arrival.burst_multiplier = 1.5;
      config.arrival.burst_start_tick = burst_start;
      config.arrival.burst_duration_ticks = burst_len;
      config.num_threads = 8;
      return config;
    };

    load::PopulationReport baseline;
    {
      serve::ServeRouter router(&agent, RouterConfig(),
                                /*initial_shards=*/2);
      load::PopulationDriverConfig config = swap_driver_config();
      config.record_timeline = false;
      load::PopulationDriver driver(&router, config);
      baseline = driver.Run();
    }

    const std::string ckpt_dir = "results/bench_hotswap_ckpt";
    const std::string tlog_dir = "results/bench_hotswap_tlog";
    std::filesystem::remove_all(ckpt_dir);
    std::filesystem::remove_all(tlog_dir);
    std::filesystem::create_directories(ckpt_dir);

    serve::TrajectoryLogConfig tlog_config;
    tlog_config.dir = tlog_dir;
    tlog_config.obs_dim = kObsDim;
    tlog_config.action_dim = 1;
    tlog_config.ring_capacity = 1 << 17;  // > one full-mode tick/shard
    serve::TrajectoryLog tlog(tlog_config);

    serve::ServeRouterConfig router_config = RouterConfig();
    router_config.trajectory_log = &tlog;
    serve::ServeRouter router(&agent, router_config, /*initial_shards=*/2);

    serve::CheckpointWatcherConfig watcher_config;
    watcher_config.dir = ckpt_dir;
    serve::CheckpointWatcher watcher(&router, watcher_config);

    const int first_shard = router.shard_ids().front();
    const uint32_t weights_before =
        router.shard(first_shard)->plan()->WeightChecksum();
    // Shared handles keep superseded plans alive, so pointer inequality
    // below really means "a different plan", not allocator reuse.
    std::vector<std::shared_ptr<const infer::InferencePlan>> plans_seen = {
        router.shard(first_shard)->plan_handle()};

    load::PopulationDriverConfig config = swap_driver_config();
    config.record_timeline = true;
    config.shard_count_source = [&router] { return router.num_shards(); };
    config.generation_source = [&watcher] { return watcher.generation(); };
    config.tick_hook = [&](int tick) {
      // "Training" publishes a new generation of the same weights at
      // each swap tick; the watcher polls every tick and swaps when one
      // appears. The flush drains the tick's trajectory records.
      for (int s = 0; s < 2; ++s) {
        if (tick != swap_ticks[s]) continue;
        serve::CheckpointMetadata metadata;
        metadata.generation = static_cast<uint64_t>(s) + 1;
        char name[32];
        std::snprintf(name, sizeof(name), "/gen-%06d", s + 1);
        if (!serve::SaveCheckpoint(ckpt_dir + name, agent, metadata)) {
          std::printf("FAIL: could not publish generation %d\n", s + 1);
        }
      }
      const serve::SwapResult result = watcher.PollOnce();
      if (result.outcome == serve::SwapOutcome::kSwapped) {
        plans_seen.push_back(router.shard(first_shard)->plan_handle());
      }
      tlog.Flush();
    };

    load::PopulationDriver driver(&router, config);
    const load::PopulationReport report = driver.Run();
    tlog.CloseSegment();
    const serve::CheckpointWatcher::Stats watcher_stats = watcher.stats();
    const serve::TrajectoryLog::Stats tlog_stats = tlog.stats();

    uint64_t active_at_swap[2] = {0, 0};
    for (const load::TickSample& sample : report.timeline) {
      for (int s = 0; s < 2; ++s) {
        if (sample.tick == swap_ticks[s]) active_at_swap[s] = sample.active;
      }
    }

    std::printf("hot-swap run (%s mode, swaps at ticks %d and %d of a "
                "%d-tick burst):\n",
                mode.name, swap_ticks[0], swap_ticks[1], burst_len);
    std::printf("  sessions: started=%llu peak_active=%llu "
                "active_at_swaps=%llu/%llu\n",
                static_cast<unsigned long long>(report.sessions_started),
                static_cast<unsigned long long>(report.peak_active),
                static_cast<unsigned long long>(active_at_swap[0]),
                static_cast<unsigned long long>(active_at_swap[1]));
    std::printf("  requests: ok=%llu failed=%llu  %.0f req/s  p50=%.0fus "
                "p99=%.0fus\n",
                static_cast<unsigned long long>(report.requests_ok),
                static_cast<unsigned long long>(report.requests_failed),
                report.req_per_sec, report.p50_us, report.p99_us);
    std::printf("  watcher: %lld polls, %lld swaps, %lld rejects, final "
                "generation %llu\n",
                static_cast<long long>(watcher_stats.polls),
                static_cast<long long>(watcher_stats.swaps),
                static_cast<long long>(watcher_stats.rejects),
                static_cast<unsigned long long>(watcher_stats.generation));
    std::printf("  trajectory log: %lld appended, %lld dropped, %lld "
                "flushed, %lld segments\n",
                static_cast<long long>(tlog_stats.appended),
                static_cast<long long>(tlog_stats.dropped),
                static_cast<long long>(tlog_stats.flushed),
                static_cast<long long>(tlog_stats.segments));

    bool swap_ok = true;
    if (!report.Consistent() || report.requests_failed != 0 ||
        report.sessions_aborted != 0) {
      std::printf("FAIL: lost work across the hot swaps (failed=%llu "
                  "aborted=%llu)\n",
                  static_cast<unsigned long long>(report.requests_failed),
                  static_cast<unsigned long long>(report.sessions_aborted));
      swap_ok = false;
    }
    if (report.request_checksum != baseline.request_checksum) {
      std::printf("FAIL: request stream diverged from the no-swap "
                  "baseline\n");
      swap_ok = false;
    }
    if (report.reply_checksum != baseline.reply_checksum) {
      std::printf("FAIL: replies diverged from the no-swap baseline — "
                  "the swap is not bitwise-transparent\n");
      swap_ok = false;
    }
    if (watcher_stats.swaps != 2 || watcher_stats.generation != 2 ||
        watcher_stats.rejects != 0) {
      std::printf("FAIL: expected exactly 2 clean swaps (got %lld, "
                  "generation %llu)\n",
                  static_cast<long long>(watcher_stats.swaps),
                  static_cast<unsigned long long>(watcher_stats.generation));
      swap_ok = false;
    }
    for (int s = 0; s < 2; ++s) {
      if (active_at_swap[s] < mode.target_peak) {
        std::printf("FAIL: only %llu concurrent sessions at swap %d "
                    "(floor %llu)\n",
                    static_cast<unsigned long long>(active_at_swap[s]),
                    s + 1,
                    static_cast<unsigned long long>(mode.target_peak));
        swap_ok = false;
      }
    }
    if (plans_seen.size() != 3 || plans_seen[0] == plans_seen[1] ||
        plans_seen[1] == plans_seen[2]) {
      std::printf("FAIL: the serving plan pointer did not change at each "
                  "swap\n");
      swap_ok = false;
    }
    if (router.shard(first_shard)->plan()->WeightChecksum() !=
        weights_before) {
      std::printf("FAIL: weight checksum drifted across same-weights "
                  "swaps\n");
      swap_ok = false;
    }
    if (tlog_stats.dropped != 0 ||
        tlog_stats.appended !=
            static_cast<int64_t>(report.requests_ok) ||
        tlog_stats.flushed != tlog_stats.appended ||
        tlog_stats.segments < 1) {
      std::printf("FAIL: trajectory log lost records (appended=%lld vs "
                  "requests_ok=%llu, dropped=%lld)\n",
                  static_cast<long long>(tlog_stats.appended),
                  static_cast<unsigned long long>(report.requests_ok),
                  static_cast<long long>(tlog_stats.dropped));
      swap_ok = false;
    }

    // --- JSON report. ---------------------------------------------------
    std::string json =
        "{\n  \"bench\": \"serve_scale_hotswap\",\n  \"config\": {\n";
    AppendKv(&json, "mode", mode.name, true);
    AppendKv(&json, "seed", U64(config.seed), false);
    AppendKv(&json, "ticks", std::to_string(mode.ticks), false);
    AppendKv(&json, "base_rate", std::to_string(mode.base_rate), false);
    AppendKv(&json, "swap_tick_1", std::to_string(swap_ticks[0]), false);
    AppendKv(&json, "swap_tick_2", std::to_string(swap_ticks[1]), false,
             /*last=*/true);
    json += "  },\n  \"results\": {\n";
    AppendKv(&json, "sessions_started", U64(report.sessions_started),
             false);
    AppendKv(&json, "peak_active", U64(report.peak_active), false);
    AppendKv(&json, "active_at_swap_1", U64(active_at_swap[0]), false);
    AppendKv(&json, "active_at_swap_2", U64(active_at_swap[1]), false);
    AppendKv(&json, "requests_ok", U64(report.requests_ok), false);
    AppendKv(&json, "requests_failed", U64(report.requests_failed), false);
    AppendKv(&json, "req_per_sec", std::to_string(report.req_per_sec),
             false);
    AppendKv(&json, "p50_us", std::to_string(report.p50_us), false);
    AppendKv(&json, "p99_us", std::to_string(report.p99_us), false);
    AppendKv(&json, "request_checksum_matches_baseline",
             report.request_checksum == baseline.request_checksum
                 ? "true" : "false", false);
    AppendKv(&json, "reply_checksum_matches_baseline",
             report.reply_checksum == baseline.reply_checksum
                 ? "true" : "false", false, /*last=*/true);
    json += "  },\n  \"watcher\": {\n";
    AppendKv(&json, "polls", std::to_string(watcher_stats.polls), false);
    AppendKv(&json, "swaps", std::to_string(watcher_stats.swaps), false);
    AppendKv(&json, "rejects", std::to_string(watcher_stats.rejects),
             false);
    AppendKv(&json, "final_generation", U64(watcher_stats.generation),
             false, /*last=*/true);
    json += "  },\n  \"trajectory_log\": {\n";
    AppendKv(&json, "appended", std::to_string(tlog_stats.appended), false);
    AppendKv(&json, "dropped", std::to_string(tlog_stats.dropped), false);
    AppendKv(&json, "flushed", std::to_string(tlog_stats.flushed), false);
    AppendKv(&json, "segments", std::to_string(tlog_stats.segments), false,
             /*last=*/true);
    json += "  },\n  \"timeline\": [\n";
    for (size_t i = 0; i < report.timeline.size(); ++i) {
      const load::TickSample& sample = report.timeline[i];
      json += "    {\"tick\": " + std::to_string(sample.tick) +
              ", \"active\": " + U64(sample.active) +
              ", \"issued\": " + U64(sample.issued) +
              ", \"shards\": " + std::to_string(sample.shards) +
              ", \"generation\": " + U64(sample.generation) + "}";
      json += i + 1 < report.timeline.size() ? ",\n" : "\n";
    }
    json += "  ]\n}\n";
    std::string json_error;
    if (!obs::JsonValidate(json, &json_error)) {
      std::printf("FAIL: hot-swap report is not valid JSON (%s)\n",
                  json_error.c_str());
      return 1;
    }
    const char* out_path = "results/BENCH_serve_scale_hotswap.json";
    std::ofstream out(out_path, std::ios::trunc);
    out << json;
    out.close();
    if (!out) {
      std::printf("FAIL: could not write %s\n", out_path);
      return 1;
    }
    std::printf("\nwrote %s (%zu timeline ticks)\n", out_path,
                report.timeline.size());
    if (!swap_ok) return 1;
    std::printf("live checkpoint hot-swap under population load OK\n");
    return 0;
  }

  // --- Phase 1: same seed + config => same request stream, any thread
  // count. Fresh router per run so neither sees the other's sessions.
  const int kDetThreads[2] = {1, 4};
  load::PopulationReport det[2];
  for (int i = 0; i < 2; ++i) {
    serve::ServeRouter router(&agent, RouterConfig(), /*initial_shards=*/2);
    load::PopulationDriverConfig config = base_driver_config();
    config.ticks = 20;
    config.drain_ticks = 45;
    config.arrival.kind = load::ArrivalKind::kSteady;
    config.arrival.base_rate = 150.0;
    config.num_threads = kDetThreads[i];
    config.record_timeline = false;
    load::PopulationDriver driver(&router, config);
    det[i] = driver.Run();
  }
  std::printf("reproducibility: %d threads -> checksum %016llx, "
              "%d threads -> %016llx (%llu sessions each)\n",
              kDetThreads[0],
              static_cast<unsigned long long>(det[0].request_checksum),
              kDetThreads[1],
              static_cast<unsigned long long>(det[1].request_checksum),
              static_cast<unsigned long long>(det[0].sessions_started));
  const bool reproducible =
      det[0].request_checksum == det[1].request_checksum &&
      det[0].sessions_started == det[1].sessions_started &&
      det[0].requests_ok == det[1].requests_ok;
  if (!reproducible) {
    std::printf("FAIL: request stream varies with worker thread count\n");
    return 1;
  }
  std::printf("request stream invariant across thread counts\n\n");

  // --- Phase 2: population scale + autoscaling. -------------------------
  serve::ServeRouter router(&agent, RouterConfig(), /*initial_shards=*/2);
  serve::AutoscalerConfig scaler_config;
  scaler_config.min_shards = 2;
  scaler_config.max_shards = 4;
  // Steady-state demand is ~ base_rate * mean_steps / shards requests
  // per shard per tick; trip scale-out well below the 2-shard steady
  // level so the ramp crosses it, scale-in near silence.
  scaler_config.scale_out_demand = 0.7 * mode.base_rate;
  scaler_config.scale_in_demand = 0.05 * mode.base_rate;
  scaler_config.breach_polls = 2;
  scaler_config.cooldown_polls = 4;
  serve::Autoscaler scaler(&router, scaler_config);

  load::PopulationDriverConfig config = base_driver_config();
  config.ticks = mode.ticks;
  config.drain_ticks = mode.drain_ticks;
  config.arrival.kind = load::ArrivalKind::kBurst;
  config.arrival.base_rate = mode.base_rate;
  config.arrival.burst_multiplier = 1.5;
  config.arrival.burst_start_tick = mode.ticks / 3;
  config.arrival.burst_duration_ticks = mode.ticks / 4;
  config.num_threads = 8;
  config.shard_count_source = [&router] { return router.num_shards(); };
  config.queue_depth_source = [&router] {
    double depth = 0.0;
    for (const auto& [id, stats] : router.ShardStats()) {
      (void)id;
      depth += static_cast<double>(stats.queue_depth);
    }
    return depth;
  };
  // Periodic exporter snapshots during the run (not just the final
  // table): local process metrics merged with the router's per-shard
  // view, one JSONL line per tick, ring readable by the endpoint.
  obs::MetricsExporterConfig exporter_config;
  exporter_config.jsonl_path = "results/BENCH_serve_scale_metrics.jsonl";
  std::filesystem::create_directories("results");
  std::filesystem::remove(exporter_config.jsonl_path);
  obs::MetricsExporter exporter(exporter_config);
  exporter.AddSource([&router](obs::MetricsSnapshot* snapshot) {
    *snapshot = router.MergedMetrics();
    return true;
  });
  config.tick_hook = [&scaler, &exporter](int) {
    scaler.Poll();
    exporter.TickOnce();
  };

  std::unique_ptr<transport::HttpMetricsServer> http;
  if (metrics_port >= 0) {
    transport::HttpMetricsConfig http_config;
    http_config.port = metrics_port;
    http = std::make_unique<transport::HttpMetricsServer>(
        [&exporter] {
          obs::ExporterSample sample;
          exporter.Latest(&sample);
          return sample.snapshot;
        },
        http_config);
    if (!http->Start()) {
      std::printf("FAIL: could not bind the metrics endpoint on port "
                  "%d\n",
                  metrics_port);
      return 1;
    }
    std::printf("metrics endpoint: %s/metrics (also /metrics.json, "
                "/healthz)\n\n",
                http->url().c_str());
    // Flush so a supervising script (run_obs_live_smoke.sh) can read
    // the URL while the run — and thus the endpoint — is still live.
    std::fflush(stdout);
  }

  load::PopulationDriver driver(&router, config);
  const load::PopulationReport report = driver.Run();
  exporter.TickOnce();  // final sample after the drain
  const serve::AutoscalerStats scaler_stats = scaler.stats();

  int max_shards_seen = 0;
  int final_shards = router.num_shards();
  for (const load::TickSample& sample : report.timeline) {
    max_shards_seen = std::max(max_shards_seen, sample.shards);
  }
  std::printf("scale run (%s arrivals, base %.0f/tick, %d+%d ticks):\n",
              load::ArrivalKindName(config.arrival.kind),
              mode.base_rate, mode.ticks, mode.drain_ticks);
  std::printf("  sessions: started=%llu finished=%llu abandoned=%llu "
              "aborted=%llu peak_active=%llu\n",
              static_cast<unsigned long long>(report.sessions_started),
              static_cast<unsigned long long>(report.sessions_finished),
              static_cast<unsigned long long>(report.sessions_abandoned),
              static_cast<unsigned long long>(report.sessions_aborted),
              static_cast<unsigned long long>(report.peak_active));
  std::printf("  requests: ok=%llu failed=%llu  %.0f req/s  "
              "p50=%.0fus p95=%.0fus p99=%.0fus\n",
              static_cast<unsigned long long>(report.requests_ok),
              static_cast<unsigned long long>(report.requests_failed),
              report.req_per_sec, report.p50_us, report.p95_us,
              report.p99_us);
  std::printf("  autoscaler: %lld polls, %lld out, %lld in; shards "
              "2 -> %d (peak) -> %d (final)\n",
              static_cast<long long>(scaler_stats.polls),
              static_cast<long long>(scaler_stats.scale_outs),
              static_cast<long long>(scaler_stats.scale_ins),
              max_shards_seen, final_shards);

  bool ok = true;
  if (!report.Consistent()) {
    std::printf("FAIL: session accounting inconsistent\n");
    ok = false;
  }
  if (report.peak_active < mode.target_peak) {
    std::printf("FAIL: peak concurrent sessions %llu below the %s floor "
                "%llu\n",
                static_cast<unsigned long long>(report.peak_active),
                mode.name,
                static_cast<unsigned long long>(mode.target_peak));
    ok = false;
  }
  if (report.requests_failed != 0 || report.sessions_aborted != 0) {
    std::printf("FAIL: lost work under autoscaling (failed=%llu "
                "aborted=%llu)\n",
                static_cast<unsigned long long>(report.requests_failed),
                static_cast<unsigned long long>(report.sessions_aborted));
    ok = false;
  }
  if (scaler_stats.scale_outs < 1 || max_shards_seen <= 2) {
    std::printf("FAIL: autoscaler never scaled out under the burst\n");
    ok = false;
  }
  if (scaler_stats.scale_ins < 1 || final_shards >= max_shards_seen) {
    std::printf("FAIL: autoscaler never scaled back in during the "
                "drain\n");
    ok = false;
  }

  // --- JSON report. -----------------------------------------------------
  std::string json = "{\n  \"bench\": \"serve_scale\",\n  \"config\": {\n";
  AppendKv(&json, "mode", mode.name, true);
  AppendKv(&json, "seed", U64(config.seed), false);
  AppendKv(&json, "ticks", std::to_string(mode.ticks), false);
  AppendKv(&json, "drain_ticks", std::to_string(mode.drain_ticks), false);
  AppendKv(&json, "arrival", load::ArrivalKindName(config.arrival.kind),
           true);
  AppendKv(&json, "base_rate", std::to_string(mode.base_rate), false);
  AppendKv(&json, "threads", std::to_string(config.num_threads), false);
  AppendKv(&json, "initial_shards", "2", false, /*last=*/true);
  json += "  },\n  \"reproducibility\": {\n";
  AppendKv(&json, "threads_a", std::to_string(kDetThreads[0]), false);
  AppendKv(&json, "threads_b", std::to_string(kDetThreads[1]), false);
  AppendKv(&json, "request_checksum_a", U64(det[0].request_checksum), true);
  AppendKv(&json, "request_checksum_b", U64(det[1].request_checksum), true);
  AppendKv(&json, "match", reproducible ? "true" : "false", false,
           /*last=*/true);
  json += "  },\n  \"results\": {\n";
  AppendKv(&json, "sessions_started", U64(report.sessions_started), false);
  AppendKv(&json, "sessions_finished", U64(report.sessions_finished), false);
  AppendKv(&json, "sessions_abandoned", U64(report.sessions_abandoned),
           false);
  AppendKv(&json, "sessions_aborted", U64(report.sessions_aborted), false);
  AppendKv(&json, "peak_active", U64(report.peak_active), false);
  AppendKv(&json, "requests_ok", U64(report.requests_ok), false);
  AppendKv(&json, "requests_failed", U64(report.requests_failed), false);
  AppendKv(&json, "req_per_sec", std::to_string(report.req_per_sec), false);
  AppendKv(&json, "p50_us", std::to_string(report.p50_us), false);
  AppendKv(&json, "p95_us", std::to_string(report.p95_us), false);
  AppendKv(&json, "p99_us", std::to_string(report.p99_us), false);
  AppendKv(&json, "elapsed_seconds",
           std::to_string(report.elapsed_seconds), false);
  AppendKv(&json, "request_checksum", U64(report.request_checksum), true,
           /*last=*/true);
  json += "  },\n  \"autoscaler\": {\n";
  AppendKv(&json, "polls", std::to_string(scaler_stats.polls), false);
  AppendKv(&json, "scale_outs", std::to_string(scaler_stats.scale_outs),
           false);
  AppendKv(&json, "scale_ins", std::to_string(scaler_stats.scale_ins),
           false);
  AppendKv(&json, "max_shards_seen", std::to_string(max_shards_seen),
           false);
  AppendKv(&json, "final_shards", std::to_string(final_shards), false,
           /*last=*/true);
  json += "  },\n  \"timeline\": [\n";
  for (size_t i = 0; i < report.timeline.size(); ++i) {
    const load::TickSample& sample = report.timeline[i];
    json += "    {\"tick\": " + std::to_string(sample.tick) +
            ", \"active\": " + U64(sample.active) +
            ", \"issued\": " + U64(sample.issued) +
            ", \"shards\": " + std::to_string(sample.shards) +
            ", \"queue_depth\": " + std::to_string(sample.queue_depth) +
            ", \"p99_us\": " + std::to_string(sample.tick_p99_us) + "}";
    json += i + 1 < report.timeline.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  std::string json_error;
  if (!obs::JsonValidate(json, &json_error)) {
    std::printf("FAIL: benchmark report is not valid JSON (%s)\n",
                json_error.c_str());
    return 1;
  }
  std::filesystem::create_directories("results");
  const char* out_path = "results/BENCH_serve_scale.json";
  std::ofstream out(out_path, std::ios::trunc);
  out << json;
  out.close();
  if (!out) {
    std::printf("FAIL: could not write %s\n", out_path);
    return 1;
  }
  std::printf("\nwrote %s (%zu timeline ticks)\n", out_path,
              report.timeline.size());
  if (!ok) return 1;
  std::printf("population load + autoscaling OK\n");
  return 0;
}

}  // namespace
}  // namespace sim2rec

int main(int argc, char** argv) { return sim2rec::Run(argc, argv); }
