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
// Flags: --smoke (10k-session floor; what the run_scale_smoke and
// run_obs_live_smoke ctests run), --full (1M), neither (100k), and
// --metrics-port N (serve GET /metrics, /metrics.json and /healthz
// while the run is live). Serving the same population over a carrier
// or across a checkpoint hot swap is checked bitwise by tests
// (Transport.SocketPathIsBitwiseIdenticalToInProcess,
// ServeRouter.HotSwapToIdenticalWeightsIsBitwiseInvisible), not here.
//
// Emits results/BENCH_serve_scale.json (validated JSON): config, run
// counters, latency quantiles, checksums, autoscaler actions, and the
// per-tick timeline (active sessions / shard count / queue depth) the
// scale-over-time plots come from; and one exporter snapshot per tick
// in results/BENCH_serve_scale_metrics.jsonl.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "core/context_agent.h"
#include "load/population_driver.h"
#include "obs/exporter.h"
#include "obs/json.h"
#include "sadae/sadae.h"
#include "serve/autoscaler.h"
#include "serve/serve_router.h"
#include "transport/http_endpoint.h"
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
