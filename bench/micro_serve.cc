// Microbenchmark of the policy-serving subsystem (src/serve) and its
// TCP transport: closed loops of simulated LTS users against a
// checkpoint exported by the LTS experiment pipeline.
//
// Measured / asserted:
//   2.5  Transport overhead: one closed loop against a 2-shard
//        ServeRouter, run in process and over loopback TCP (4 clients
//        each); the loopback per-user streams must equal the in-process
//        ones bit for bit, and the server's metrics must be fetchable
//        over the wire.
//   2.6  Pipelining: (a) one TCP connection pipelined at depth 8 must
//        reach 3x the rate of the same connection used serially.
//   3    Shard scaling: the closed loop against a consistent-hash
//        ServeRouter at 1/2/4/8 shards x 1/2/4/8 clients, quantiles
//        taken from the router's merged per-shard metrics
//        (obs::MergeSnapshots — the cross-process aggregation seam
//        exercised end to end).
//   Export: the metrics snapshot and the Chrome trace are valid JSON.
//
// Checked by tests instead: batched == serial bitwise
// (InferenceServer.BatchedIsBitwiseIdenticalToSerial) and float32
// serving within tolerance of the double forward
// (ServerPrecision.Float32TracksDoubleWithinTolerance).
//
// Every gate prints its FAIL, is recorded and the run goes on, so one
// failed bar never hides the gates after it; the exit code is 1 when
// any gate failed (the failed ones are listed last). Set-up failures —
// cannot load, bind or start — still end the run at once.
//
// Note: on a single-core container the thread counts (and shard
// counts) collapse to ~1x — shards scale with physical cores, which
// this box does not have; the bitwise check is load-bearing
// regardless.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/factories.h"
#include "envs/lts_env.h"
#include "nn/tensor.h"
#include "experiments/lts_experiment.h"
#include "obs/exporter.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "transport/http_endpoint.h"
#include "serve/checkpoint.h"
#include "serve/inference_server.h"
#include "serve/policy_service.h"
#include "serve/serve_router.h"
#include "transport/policy_client.h"
#include "transport/policy_server.h"
#include "util/csv.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace sim2rec {
namespace {

bool BitwiseEqual(const nn::Tensor& a, const nn::Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<size_t>(a.size())) == 0;
}

/// One simulated user: a single-user LTS deployment environment plus its
/// current observation, advanced by the guarded action the server
/// returns (exactly what a live recommender loop would do).
struct SimUser {
  std::unique_ptr<envs::LtsEnv> env;
  std::unique_ptr<Rng> rng;
  nn::Tensor obs;  // [1 x obs_dim]
};

SimUser MakeUser(uint64_t user_id) {
  envs::LtsConfig config;
  config.num_users = 1;
  config.horizon = 1 << 20;  // the bench controls episode length
  config.user_seed = 9000 + user_id;
  SimUser user;
  user.env = std::make_unique<envs::LtsEnv>(config);
  user.rng = std::make_unique<Rng>(500 + user_id);
  user.obs = user.env->Reset(*user.rng);
  return user;
}

serve::InferenceServerConfig ServerConfig(int max_batch_size) {
  serve::InferenceServerConfig config;
  config.max_batch_size = max_batch_size;
  config.action_low = {0.0};
  config.action_high = {1.0};
  return config;
}

/// Drives `num_users` users for `steps` steps each from `num_clients`
/// concurrent threads (users partitioned across clients, round-robin
/// within a client). Optionally records every user's observation and
/// action stream. Each client thread asks `service_for_client` for its
/// own PolicyService handle — all threads share one server in-process;
/// over the transport each thread gets its own PolicyClient (its own
/// connection), like real client processes would.
void DriveClosedLoopWith(
    const std::function<std::shared_ptr<serve::PolicyService>(int)>&
        service_for_client,
    int num_users, int num_clients, int steps,
    std::vector<std::vector<nn::Tensor>>* obs_log,
    std::vector<std::vector<nn::Tensor>>* action_log) {
  std::vector<std::thread> clients;
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      const std::shared_ptr<serve::PolicyService> service =
          service_for_client(c);
      std::vector<int> mine;
      for (int u = c; u < num_users; u += num_clients) mine.push_back(u);
      std::vector<SimUser> users;
      for (int u : mine) users.push_back(MakeUser(u));
      for (int t = 0; t < steps; ++t) {
        for (size_t k = 0; k < users.size(); ++k) {
          SimUser& user = users[k];
          const uint64_t user_id = mine[k];
          if (obs_log) (*obs_log)[user_id].push_back(user.obs);
          const serve::ServeReply reply = service->Act(user_id, user.obs);
          if (action_log) (*action_log)[user_id].push_back(reply.action);
          const envs::StepResult result =
              user.env->Step(reply.action, *user.rng);
          user.obs = result.next_obs;
        }
      }
    });
  }
  for (auto& th : clients) th.join();
}

/// The common in-process case: every client thread drives `server`.
void DriveClosedLoop(serve::PolicyService& server, int num_users,
                     int num_clients, int steps,
                     std::vector<std::vector<nn::Tensor>>* obs_log,
                     std::vector<std::vector<nn::Tensor>>* action_log) {
  DriveClosedLoopWith(
      [&server](int) {
        return std::shared_ptr<serve::PolicyService>(&server,
                                                     [](auto*) {});
      },
      num_users, num_clients, steps, obs_log, action_log);
}

/// Wraps a service and records client-observed Act latency, so the
/// in-process and loopback rows below measure the same thing from the
/// same vantage point.
class TimedService : public serve::PolicyService {
 public:
  TimedService(std::shared_ptr<serve::PolicyService> inner,
               obs::LogHistogram* latency)
      : inner_(std::move(inner)), latency_(latency) {}
  serve::ServeReply Act(uint64_t user_id, const nn::Tensor& obs) override {
    const double start_us = obs::MonotonicMicros();
    serve::ServeReply reply = inner_->Act(user_id, obs);
    latency_->Record(obs::MonotonicMicros() - start_us);
    return reply;
  }
  void EndSession(uint64_t user_id) override { inner_->EndSession(user_id); }

 private:
  std::shared_ptr<serve::PolicyService> inner_;
  obs::LogHistogram* latency_;
};

/// Exact quantile over raw latency samples (sorts in place). The
/// obs::LogHistogram is log2-bucketed — fine for dashboards, too
/// coarse for rows that differ by tens of microseconds.
double ExactQuantileUs(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const size_t index = std::min(
      samples->size() - 1, static_cast<size_t>(q * samples->size()));
  return (*samples)[index];
}

int Run(int argc, char** argv) {
  const bool full = HasFlag(argc, argv, "--full");
  SetLogLevel(LogLevel::kWarn);

  // Background exporter: a process-metrics snapshot every 250ms into
  // JSONL for the whole bench run, so latency/throughput movement is
  // watchable while the phases execute, not just in the final tables.
  // Reads only — the phase-2.5 bitwise carrier check runs with it
  // live, which is the determinism contract in action.
  std::filesystem::create_directories("results");
  obs::MetricsExporterConfig exporter_config;
  exporter_config.interval_ms = 250;
  exporter_config.jsonl_path = "results/micro_serve_metrics.jsonl";
  std::filesystem::remove(exporter_config.jsonl_path);
  obs::MetricsExporter exporter(exporter_config);
  exporter.Start();

  // --metrics-port N: serve the exporter's latest sample over HTTP
  // (GET /metrics, /metrics.json, /healthz) for curl while the bench
  // runs; 0 picks an ephemeral port. Absent = no endpoint.
  const int metrics_port = GetFlagInt(argc, argv, "--metrics-port", -1);
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
                "/healthz)\n",
                http->url().c_str());
    // Flush so a supervising script can read the URL while the
    // endpoint is still alive (stdout is block-buffered into a file).
    std::fflush(stdout);
  }

  // --- Train a small Sim2Rec agent and export the serving bundle. -------
  const std::string checkpoint_dir =
      (std::filesystem::temp_directory_path() / "sim2rec_micro_serve_ckpt")
          .string();
  experiments::LtsExperimentConfig train_config;
  train_config.num_users = full ? 16 : 8;
  train_config.horizon = full ? 16 : 8;
  train_config.iterations = full ? 8 : 3;
  train_config.eval_every = train_config.iterations;  // one cheap eval
  train_config.eval_episodes = 1;
  train_config.sadae_pretrain_epochs = full ? 6 : 3;
  train_config.export_checkpoint_dir = checkpoint_dir;
  train_config.seed = 17;
  std::printf("micro_serve — policy-serving throughput\n");
  std::printf("training Sim2Rec (%d iters) and exporting to %s ...\n",
              train_config.iterations, checkpoint_dir.c_str());
  experiments::RunLtsVariant(baselines::AgentVariant::kSim2Rec, {-4.0, 4.0},
                             train_config);

  std::unique_ptr<serve::LoadedPolicy> policy =
      serve::LoadCheckpoint(checkpoint_dir);
  if (!policy) {
    std::printf("FAIL: could not load the exported checkpoint\n");
    return 1;
  }
  std::printf("loaded checkpoint: variant=%s train_iterations=%d\n",
              policy->metadata.variant.c_str(),
              policy->metadata.train_iterations);

  // Gates that failed, in run order (see the header comment).
  std::vector<std::string> failed_gates;

  obs::TraceRecorder::Global().Start();
  const int kUsersPerClient = 4;
  const std::vector<int> client_counts = {1, 2, 4, 8};

  // --- Phase 2.5: in-process vs loopback TCP (transport overhead). ------
  // The same closed loop against the same 2-shard router topology,
  // measured from the client's vantage point (TimedService wraps each
  // client's service handle): once through direct in-process calls,
  // once through PolicyClient -> PolicyServer over loopback TCP — one
  // connection per client thread, like real client processes. The two
  // runs must produce bitwise-identical per-user streams: the wire
  // carries raw IEEE-754 bytes, so crossing the process boundary must
  // not perturb a single bit of any action.
  const int kWireSteps = full ? 100 : 30;
  const int kWireClients = 4;
  const int kWireUsers = kWireClients * kUsersPerClient;
  std::printf("\ntransport overhead (2-shard router, %d clients x %d "
              "users x %d steps):\n", kWireClients, kWireUsers, kWireSteps);
  std::printf("%-12s %-12s %-9s %-9s %-9s\n", "path", "req/sec",
              "p50(us)", "p95(us)", "p99(us)");
  CsvWriter wire_csv("results/micro_serve_transport.csv",
                     {"path", "req_per_sec", "p50_us", "p95_us", "p99_us"});
  struct PathRun {
    std::vector<std::vector<nn::Tensor>> obs_log;
    std::vector<std::vector<nn::Tensor>> action_log;
    PathRun() : obs_log(kWireUsers), action_log(kWireUsers) {}
  };
  PathRun inproc, loopback;
  {
    serve::ServeRouterConfig router_config;
    router_config.shard = ServerConfig(/*max_batch_size=*/16);
    serve::ServeRouter router(policy->agent.get(), router_config,
                              /*num_shards=*/2);
    obs::LogHistogram latency;
    Stopwatch stopwatch;
    DriveClosedLoopWith(
        [&](int) {
          return std::make_shared<TimedService>(
              std::shared_ptr<serve::PolicyService>(&router, [](auto*) {}),
              &latency);
        },
        kWireUsers, kWireClients, kWireSteps, &inproc.obs_log,
        &inproc.action_log);
    const double rate =
        kWireUsers * static_cast<double>(kWireSteps) /
        stopwatch.ElapsedSeconds();
    std::printf("%-12s %-12.0f %-9.0f %-9.0f %-9.0f\n", "in-process",
                rate, latency.Quantile(0.50), latency.Quantile(0.95),
                latency.Quantile(0.99));
    wire_csv.WriteRow("in-process",
                      {rate, latency.Quantile(0.50),
                       latency.Quantile(0.95), latency.Quantile(0.99)});
  }
  {
    serve::ServeRouterConfig router_config;
    router_config.shard = ServerConfig(/*max_batch_size=*/16);
    serve::ServeRouter router(policy->agent.get(), router_config,
                              /*num_shards=*/2);
    transport::PolicyServerConfig server_config;
    server_config.num_workers = kWireClients + 1;  // clients + probe
    server_config.metrics_source = [&router] {
      return obs::MergeSnapshots(
          {router.MergedMetrics(),
           obs::MetricsRegistry::Global().Snapshot()});
    };
    transport::PolicyServer server(&router, server_config);
    if (!server.Start()) {
      std::printf("FAIL: could not start the loopback PolicyServer\n");
      return 1;
    }
    obs::LogHistogram latency;
    Stopwatch stopwatch;
    DriveClosedLoopWith(
        [&](int) {
          transport::PolicyClientConfig client_config;
          client_config.port = server.port();
          return std::make_shared<TimedService>(
              std::make_shared<transport::PolicyClient>(client_config),
              &latency);
        },
        kWireUsers, kWireClients, kWireSteps, &loopback.obs_log,
        &loopback.action_log);
    const double rate =
        kWireUsers * static_cast<double>(kWireSteps) /
        stopwatch.ElapsedSeconds();
    std::printf("%-12s %-12.0f %-9.0f %-9.0f %-9.0f\n", "loopback-tcp",
                rate, latency.Quantile(0.50), latency.Quantile(0.95),
                latency.Quantile(0.99));
    wire_csv.WriteRow("loopback-tcp",
                      {rate, latency.Quantile(0.50),
                       latency.Quantile(0.95), latency.Quantile(0.99)});
    // The cross-process aggregation leg, end to end: fetch the server's
    // merged snapshot over the wire and read its transport counters.
    transport::PolicyClientConfig probe_config;
    probe_config.port = server.port();
    transport::PolicyClient probe(probe_config);
    obs::MetricsSnapshot remote;
    if (probe.FetchMetrics(&remote) != transport::TransportStatus::kOk) {
      std::printf("FAIL: FetchMetrics over the wire failed\n");
      failed_gates.push_back("phase 2.5: metrics fetched over the wire");
    }
    int64_t wire_requests = 0;
    for (const auto& c : remote.counters) {
      if (c.name == "transport.requests") wire_requests = c.value;
    }
    std::printf("metrics fetched over the wire: transport.requests=%lld "
                "(server stats: %lld requests, %lld malformed)\n",
                static_cast<long long>(wire_requests),
                static_cast<long long>(server.stats().requests),
                static_cast<long long>(server.stats().malformed_frames));
    server.Shutdown();
  }
  bool wire_identical = true;
  for (int u = 0; u < kWireUsers && wire_identical; ++u) {
    if (loopback.action_log[u].size() != inproc.action_log[u].size()) {
      wire_identical = false;
      break;
    }
    for (size_t t = 0; t < loopback.action_log[u].size(); ++t) {
      if (!BitwiseEqual(loopback.obs_log[u][t], inproc.obs_log[u][t]) ||
          !BitwiseEqual(loopback.action_log[u][t],
                        inproc.action_log[u][t])) {
        std::printf("FAIL: user %d step %zu diverges between loopback "
                    "and in-process serving\n", u, t);
        wire_identical = false;
        break;
      }
    }
  }
  if (wire_identical) {
    std::printf("loopback actions bitwise-identical to in-process "
                "(%d users x %d steps)\n", kWireUsers, kWireSteps);
  } else {
    failed_gates.push_back("phase 2.5: loopback bitwise == in-process");
  }

  // --- Phase 2.6: pipelining on one connection. -------------------------
  //   (a) Against a batching server, one multiplexed v3 connection at
  //       depth 8 must reach >= 3x the request rate of the same
  //       connection used serially. Depth-8 submissions overlap, so
  //       they share batches and round trips. The bar was set when
  //       every serial request also paid a fixed straggler hold that
  //       pipelined batches skipped; with batching now driven by
  //       overlap alone, the bar is due to be re-derived (ROADMAP).
  {
    const int kFastUsers = 8;
    const int kFastN = (full ? 800 : 240);  // requests per row
    nn::Tensor fast_obs[kFastUsers];
    for (int u = 0; u < kFastUsers; ++u) {
      fast_obs[u] = MakeUser(u).obs;
    }
    std::printf("\npipelining (batching server, max_batch=8, "
                "%d requests/row):\n",
                kFastN);
    std::printf("%-16s %-12s %-9s %-9s\n", "row", "req/sec", "p50(us)",
                "p99(us)");
    CsvWriter fast_csv("results/micro_serve_fastlane.csv",
                       {"row", "req_per_sec", "p50_us", "p99_us"});

    serve::InferenceServer batched(policy->agent.get(), ServerConfig(8));
    transport::PolicyServerConfig fast_server_config;
    fast_server_config.num_workers = 2;
    fast_server_config.dispatch_threads = 8;  // all 8 reach the server
    transport::PolicyServer fast_server(&batched, fast_server_config);
    if (!fast_server.Start()) {
      std::printf("FAIL: could not start the pipelining PolicyServer\n");
      return 1;
    }

    // One row: `depth` in-flight requests on ONE connection; returns
    // req/sec and prints exact latency quantiles. Serial rows time each
    // round trip; depth-8 rows time the round and attribute round/depth
    // to each request (the pipelined tier's effective per-request
    // cost).
    const auto run_row = [&](int depth, const char* label) {
      transport::PolicyClientConfig client_config;
      client_config.port = fast_server.port();
      transport::PolicyClient client(client_config);
      std::vector<double> latencies;
      latencies.reserve(kFastN);
      for (int u = 0; u < kFastUsers; ++u) {  // connection + first batches
        serve::ServeReply reply;
        const transport::TransportStatus status =
            client.TryAct(u, fast_obs[u], &reply);
        if (status != transport::TransportStatus::kOk) {
          std::printf("%-16s warm-up failed: %s\n", label,
                      transport::TransportStatusName(status));
          return -1.0;
        }
      }
      const int rounds = kFastN / depth;
      Stopwatch stopwatch;
      for (int r = 0; r < rounds; ++r) {
        const double start_us = obs::MonotonicMicros();
        if (depth == 1) {
          serve::ServeReply reply;
          const int u = r % kFastUsers;
          const transport::TransportStatus status =
              client.TryAct(u, fast_obs[u], &reply);
          if (status != transport::TransportStatus::kOk) {
            std::printf("%-16s round %d failed: %s\n", label, r,
                        transport::TransportStatusName(status));
            return -1.0;
          }
        } else {
          std::vector<transport::PolicyClient::ActHandle> handles;
          handles.reserve(depth);
          for (int d = 0; d < depth; ++d) {
            const int u = d % kFastUsers;
            handles.push_back(client.SubmitAct(u, fast_obs[u]));
          }
          for (const auto& result : client.AwaitAll(handles)) {
            if (result.status != transport::TransportStatus::kOk) {
              std::printf("%-16s round %d failed: %s\n", label, r,
                          transport::TransportStatusName(result.status));
              return -1.0;
            }
          }
        }
        const double round_us = obs::MonotonicMicros() - start_us;
        for (int d = 0; d < depth; ++d) latencies.push_back(round_us / depth);
      }
      const double rate =
          rounds * static_cast<double>(depth) / stopwatch.ElapsedSeconds();
      const double p50_us = ExactQuantileUs(&latencies, 0.50);
      const double p99_us = ExactQuantileUs(&latencies, 0.99);
      std::printf("%-16s %-12.0f %-9.0f %-9.0f\n", label, rate, p50_us,
                  p99_us);
      fast_csv.WriteRow(label, {rate, p50_us, p99_us});
      return rate;
    };

    const double tcp_serial = run_row(1, "tcp-serial");
    const double tcp_pipelined = run_row(8, "tcp-pipelined8");
    fast_server.Shutdown();
    if (tcp_serial <= 0.0 || tcp_pipelined <= 0.0) {
      std::printf("FAIL: a pipelining row hit a transport error\n");
      failed_gates.push_back("phase 2.6(a): pipelining rows complete");
    } else {
      std::printf("pipelining speedup on one connection: %.2fx (bar: 3x)\n",
                  tcp_pipelined / tcp_serial);
      if (tcp_pipelined < 3.0 * tcp_serial) {
        std::printf("FAIL: depth-8 pipelining %.2fx is below the 3x bar\n",
                    tcp_pipelined / tcp_serial);
        failed_gates.push_back("phase 2.6(a): depth-8 pipelining >= 3x");
      }
    }
  }

  // --- Phase 3: shard scaling (ServeRouter, merged shard metrics). ------
  const int kShardSteps = full ? 150 : 40;
  const std::vector<int> shard_counts = {1, 2, 4, 8};
  std::printf("\nshard scaling (consistent-hash ServeRouter, %d steps "
              "per user):\n", kShardSteps);
  std::printf("%-8s %-9s %-7s %-12s %-9s %-9s %-9s\n", "shards",
              "clients", "users", "req/sec", "p50(us)", "p95(us)",
              "p99(us)");
  CsvWriter shard_csv("results/micro_serve_shards.csv",
                      {"shards", "clients", "users", "req_per_sec",
                       "p50_us", "p95_us", "p99_us"});
  // rate[shards][clients] for the 4-vs-1-shard aggregate ratio.
  std::map<int, std::map<int, double>> rates;
  std::string merged_view;
  for (int shards : shard_counts) {
    for (int clients : client_counts) {
      const int num_users = clients * kUsersPerClient;
      serve::ServeRouterConfig router_config;
      router_config.shard = ServerConfig(/*max_batch_size=*/16);
      serve::ServeRouter router(policy->agent.get(), router_config,
                                shards);
      DriveClosedLoop(router, num_users, clients, 2, nullptr, nullptr);
      Stopwatch stopwatch;
      DriveClosedLoop(router, num_users, clients, kShardSteps, nullptr,
                      nullptr);
      const double seconds = stopwatch.ElapsedSeconds();
      const double rate =
          num_users * static_cast<double>(kShardSteps) / seconds;
      rates[shards][clients] = rate;
      // One unified view across all shard registries — the
      // cross-process aggregation seam.
      const obs::MetricsSnapshot merged = router.MergedMetrics();
      double p50 = 0.0, p95 = 0.0, p99 = 0.0;
      for (const auto& h : merged.histograms) {
        if (h.name == "serve.latency_us") {
          p50 = h.p50;
          p95 = h.p95;
          p99 = h.p99;
        }
      }
      std::printf("%-8d %-9d %-7d %-12.0f %-9.0f %-9.0f %-9.0f\n",
                  shards, clients, num_users, rate, p50, p95, p99);
      shard_csv.WriteRow({static_cast<double>(shards),
                          static_cast<double>(clients),
                          static_cast<double>(num_users), rate, p50, p95,
                          p99});
      if (shards == shard_counts.back() && clients == client_counts.back()) {
        merged_view = merged.ToText();
      }
    }
  }
  if (rates[1][8] > 0.0) {
    std::printf("\naggregate req/s at 8 clients: 4 shards = %.2fx of "
                "1 shard\n", rates[4][8] / rates[1][8]);
    std::printf("(shards scale with physical cores; on a single-core "
                "container expect ~1x)\n");
  }
  std::printf("\nmerged per-shard metrics (8 shards, unified view):\n%s",
              merged_view.c_str());

  // --- Observability export: metrics snapshot + Chrome trace. -----------
  obs::TraceRecorder::Global().Stop();
  const std::string snapshot_json =
      obs::MetricsRegistry::Global().Snapshot().ToJson();
  std::string json_error;
  if (!obs::JsonValidate(snapshot_json, &json_error)) {
    std::printf("FAIL: metrics snapshot is not valid JSON (%s)\n",
                json_error.c_str());
    failed_gates.push_back("export: metrics snapshot is valid JSON");
  }
  const std::string trace_path = "results/micro_serve_trace.json";
  const std::string trace_json =
      obs::TraceRecorder::Global().ToChromeTraceJson();
  if (!obs::JsonValidate(trace_json, &json_error)) {
    std::printf("FAIL: trace export is not valid JSON (%s)\n",
                json_error.c_str());
    failed_gates.push_back("export: trace is valid JSON");
  }
  if (!obs::TraceRecorder::Global().WriteChromeTrace(trace_path)) {
    std::printf("FAIL: could not write %s\n", trace_path.c_str());
    failed_gates.push_back("export: trace file written");
  }
  const std::vector<std::string> span_names =
      obs::TraceRecorder::Global().SpanNames();
  if (obs::Enabled() && span_names.size() < 3) {
    std::printf("FAIL: expected >= 3 distinct span names in the serving "
                "trace, got %zu\n", span_names.size());
    failed_gates.push_back("export: >= 3 span kinds in the trace");
  }
  std::printf("\nmetrics snapshot:\n%s",
              obs::MetricsRegistry::Global().Snapshot().ToText().c_str());
  std::printf("\ntrace: %s (%lld events, %zu span kinds; open at "
              "ui.perfetto.dev)\n", trace_path.c_str(),
              static_cast<long long>(
                  obs::TraceRecorder::Global().event_count()),
              span_names.size());
  if (http != nullptr) http->Shutdown();
  exporter.Stop();
  std::printf("exporter: %lld periodic samples -> %s\n",
              static_cast<long long>(exporter.snapshots_taken()),
              exporter_config.jsonl_path.c_str());
  if (!failed_gates.empty()) {
    std::printf("\nFAILED %zu gate(s):\n", failed_gates.size());
    for (const std::string& gate : failed_gates) {
      std::printf("  %s\n", gate.c_str());
    }
    return 1;
  }
  std::printf("\nserving checkpoint round trip + batching OK\n");
  return 0;
}

}  // namespace
}  // namespace sim2rec

int main(int argc, char** argv) { return sim2rec::Run(argc, argv); }
