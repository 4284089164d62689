// Networked serving walkthrough: train a Sim2Rec policy, export it,
// serve it from a sharded router behind a loopback TCP PolicyServer,
// and drive it from PolicyClients — the same closed loop as
// examples/serve_policy, but across a process-style network boundary.
//
//   ./build/examples/serve_policy_net
//
// The transport (src/transport) fronts any serve::PolicyService with a
// versioned, CRC-checked binary protocol (docs/PROTOCOL.md). The
// client itself implements PolicyService, so the serving loop below is
// written exactly like the in-process one — and because the wire
// carries raw IEEE-754 bytes, the actions that come back are
// bitwise-identical to direct calls. Operational commands (Ping,
// FetchMetrics) use the typed-status API with automatic retry.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "envs/lts_env.h"
#include "experiments/lts_experiment.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/serve_router.h"
#include "transport/policy_client.h"
#include "transport/policy_server.h"

int main() {
  using namespace sim2rec;
  SetLogLevel(LogLevel::kWarn);

  // 1. Train a small agent and export the serving bundle (identical to
  //    the in-process walkthrough — the transport changes nothing
  //    about training or checkpoints).
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sim2rec_serve_net_demo")
          .string();
  experiments::LtsExperimentConfig config;
  config.num_users = 16;
  config.horizon = 12;
  config.iterations = 6;
  config.eval_every = config.iterations;  // one cheap eval
  config.eval_episodes = 1;
  config.sadae_pretrain_epochs = 5;
  config.export_checkpoint_dir = dir;
  config.seed = 3;
  std::printf("training Sim2Rec and exporting checkpoint to %s ...\n",
              dir.c_str());
  experiments::RunLtsVariant(baselines::AgentVariant::kSim2Rec,
                             {-4.0, 4.0}, config);
  std::unique_ptr<serve::LoadedPolicy> policy = serve::LoadCheckpoint(dir);
  if (!policy) {
    std::printf("checkpoint load failed\n");
    return 1;
  }

  // 2. Build the serving tier: a 2-shard consistent-hash router ...
  serve::ServeRouterConfig router_config;
  router_config.shard.max_batch_size = 8;
  router_config.shard.action_low = {0.0};  // LTS action box
  router_config.shard.action_high = {1.0};
  serve::ServeRouter router(policy->agent.get(), router_config,
                            /*initial_shards=*/2);

  // ... fronted by a TCP server on an ephemeral loopback port. The
  // metrics_source answers MetricsSnapshot requests with one unified
  // view: per-shard serve.* registries merged with the process-global
  // registry (which holds the transport.* counters).
  transport::PolicyServerConfig server_config;
  server_config.num_workers = 4;
  server_config.metrics_source = [&router] {
    return obs::MergeSnapshots(
        {router.MergedMetrics(),
         obs::MetricsRegistry::Global().Snapshot()});
  };
  transport::PolicyServer server(&router, server_config);
  if (!server.Start()) {
    std::printf("could not start the policy server\n");
    return 1;
  }
  std::printf("policy server listening on 127.0.0.1:%d "
              "(2 shards, 4 workers)\n", server.port());

  // 3. Check liveness before sending traffic. Ping is idempotent, so
  //    the client retries it with exponential backoff; the reply also
  //    carries the server's protocol version.
  transport::PolicyClientConfig client_config;
  client_config.port = server.port();
  transport::PolicyClient ops_client(client_config);
  uint8_t server_version = 0;
  if (ops_client.Ping(&server_version) != transport::TransportStatus::kOk) {
    std::printf("server did not answer ping\n");
    return 1;
  }
  std::printf("ping ok, server speaks protocol v%d\n", server_version);

  // 4. Drive four concurrent users, each client thread owning its own
  //    PolicyClient (its own connection) — the shape real client
  //    processes would have. The loop body is byte-for-byte the one
  //    from the in-process walkthrough: PolicyClient IS a
  //    PolicyService.
  constexpr int kUsers = 4;
  constexpr int kSteps = 10;
  std::vector<double> engagement(kUsers, 0.0);
  std::vector<std::thread> clients;
  for (int u = 0; u < kUsers; ++u) {
    clients.emplace_back([&, u] {
      transport::PolicyClient client(client_config);
      envs::LtsConfig env_config;
      env_config.num_users = 1;
      env_config.horizon = kSteps;
      env_config.user_seed = 100 + u;
      envs::LtsEnv env(env_config);
      Rng rng(200 + u);
      nn::Tensor obs = env.Reset(rng);
      for (int t = 0; t < kSteps; ++t) {
        const serve::ServeReply reply = client.Act(u, obs);
        const envs::StepResult result = env.Step(reply.action, rng);
        engagement[u] += result.rewards[0];
        obs = result.next_obs;
      }
      // A departing user ends their session so the server can free the
      // recurrent state immediately instead of waiting for TTL expiry.
      client.EndSession(u);
    });
  }
  for (auto& th : clients) th.join();
  for (int u = 0; u < kUsers; ++u) {
    std::printf("user %d: total engagement %.1f over %d requests\n", u,
                engagement[u], kSteps);
  }

  // 5. Read the serving tier's metrics over the wire — the
  //    cross-process aggregation leg. The snapshot merges per-shard
  //    serve.* metrics with the transport.* counters; merge it again
  //    with local snapshots via obs::MergeSnapshots when aggregating
  //    across several servers.
  obs::MetricsSnapshot remote;
  if (ops_client.FetchMetrics(&remote) != transport::TransportStatus::kOk) {
    std::printf("metrics fetch failed\n");
    return 1;
  }
  std::printf("\nmetrics fetched over the wire:\n");
  for (const auto& counter : remote.counters) {
    if (counter.name.rfind("serve.", 0) == 0 ||
        counter.name.rfind("transport.", 0) == 0) {
      std::printf("  %-28s %lld\n", counter.name.c_str(),
                  static_cast<long long>(counter.value));
    }
  }

  // 6. Drain and stop. Shutdown lets in-flight requests finish and
  //    their replies reach the sockets before closing connections.
  server.Shutdown();
  const transport::PolicyServerStats stats = server.stats();
  std::printf("\nserver handled %lld requests on %lld connections "
              "(%lld malformed frames)\n",
              static_cast<long long>(stats.requests),
              static_cast<long long>(stats.connections_accepted),
              static_cast<long long>(stats.malformed_frames));
  return 0;
}
