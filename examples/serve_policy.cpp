// Serving walkthrough: train a Sim2Rec policy, export it as a serving
// checkpoint, load it back, and answer live per-user requests through
// the batching inference server.
//
//   ./build/examples/serve_policy
//
// The serving path (src/serve) is the first consumer of trained
// artifacts: a checkpoint directory holds everything inference needs
// (policy + value + extractor + SADAE weights, observation-normalizer
// statistics, and a config manifest), the SessionStore keeps each
// user's recurrent extractor state between requests, and the
// InferenceServer batches Act() calls that overlap into one forward
// pass through the frozen float32 plan without changing any user's
// answer.

#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "envs/lts_env.h"
#include "experiments/lts_experiment.h"
#include "serve/checkpoint.h"
#include "serve/inference_server.h"
#include "serve/serve_router.h"

int main() {
  using namespace sim2rec;
  SetLogLevel(LogLevel::kWarn);

  // 1. Train a (deliberately small) Sim2Rec agent on gapped simulators
  //    and export the bundle. Any LtsExperimentConfig run exports when
  //    export_checkpoint_dir is set; the same knob exists on the DPR
  //    pipeline (DprTrainOptions).
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sim2rec_serve_demo")
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

  // 2. Load the bundle. LoadCheckpoint rebuilds the agent from the
  //    manifest and restores every weight and the normalizer statistics
  //    bit-exactly; it returns nullptr (never aborts) on corruption.
  std::unique_ptr<serve::LoadedPolicy> policy =
      serve::LoadCheckpoint(dir);
  if (!policy) {
    std::printf("checkpoint load failed\n");
    return 1;
  }
  std::printf("loaded %s checkpoint (%d training iterations)\n",
              policy->metadata.variant.c_str(),
              policy->metadata.train_iterations);

  // 3. Serve it. The server owns a per-user session store (LRU + TTL)
  //    and batches overlapping requests; the F_exec guard clamps
  //    actions into the executable box and flags the clamp.
  serve::InferenceServerConfig server_config;
  server_config.max_batch_size = 8;
  server_config.action_low = {0.0};   // LTS action box
  server_config.action_high = {1.0};
  serve::InferenceServer server(policy->agent.get(), server_config);

  // 4. Simulate four concurrent users, each a closed loop against its
  //    own single-user LTS deployment environment.
  constexpr int kUsers = 4;
  constexpr int kSteps = 10;
  std::vector<double> engagement(kUsers, 0.0);
  std::vector<std::thread> clients;
  for (int u = 0; u < kUsers; ++u) {
    clients.emplace_back([&, u] {
      envs::LtsConfig env_config;
      env_config.num_users = 1;
      env_config.horizon = kSteps;
      env_config.user_seed = 100 + u;
      envs::LtsEnv env(env_config);
      Rng rng(200 + u);
      nn::Tensor obs = env.Reset(rng);
      for (int t = 0; t < kSteps; ++t) {
        const serve::ServeReply reply = server.Act(u, obs);
        const envs::StepResult result = env.Step(reply.action, rng);
        engagement[u] += result.rewards[0];
        obs = result.next_obs;
      }
    });
  }
  for (auto& th : clients) th.join();

  const serve::InferenceServerStats stats = server.stats();
  std::printf("\nserved %lld requests in %lld batches "
              "(mean occupancy %.2f)\n",
              static_cast<long long>(stats.requests),
              static_cast<long long>(stats.batches),
              stats.mean_batch_occupancy);
  std::printf("latency p50/p95/p99: %.0f / %.0f / %.0f us\n",
              stats.latency_p50_us, stats.latency_p95_us,
              stats.latency_p99_us);
  for (int u = 0; u < kUsers; ++u) {
    std::printf("user %d: total engagement %.1f over %d requests\n", u,
                engagement[u], kSteps);
  }

  // 5. Scale out. A ServeRouter is the same PolicyService, but routes
  //    each user to one of N InferenceServer shards by consistent
  //    hashing — user-affine, so recurrent sessions stay put.
  std::printf("\n--- sharded serving ---\n");
  serve::ServeRouterConfig router_config;
  router_config.shard = server_config;
  serve::ServeRouter router(policy->agent.get(), router_config,
                            /*initial_shards=*/2);
  constexpr int kRouterUsers = 12;
  std::vector<std::unique_ptr<envs::LtsEnv>> envs;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<nn::Tensor> obs_now;
  for (int u = 0; u < kRouterUsers; ++u) {
    envs::LtsConfig env_config;
    env_config.num_users = 1;
    env_config.horizon = 1 << 20;
    env_config.user_seed = 300 + u;
    envs.push_back(std::make_unique<envs::LtsEnv>(env_config));
    rngs.push_back(std::make_unique<Rng>(400 + u));
    obs_now.push_back(envs[u]->Reset(*rngs[u]));
  }
  auto drive = [&](serve::PolicyService& service, int steps) {
    for (int t = 0; t < steps; ++t) {
      for (int u = 0; u < kRouterUsers; ++u) {
        const serve::ServeReply reply = service.Act(u, obs_now[u]);
        obs_now[u] = envs[u]->Step(reply.action, *rngs[u]).next_obs;
      }
    }
  };
  drive(router, 5);
  std::printf("2 shards, %d users, 5 steps each; ownership:", kRouterUsers);
  for (int u = 0; u < kRouterUsers; ++u) {
    std::printf(" %d->s%d", u, router.ShardFor(u));
  }
  std::printf("\n");

  // 6. Rebalance online. Adding a shard moves ~1/N of users — their
  //    sessions are drained out of the old owners and replayed into the
  //    new one, recurrent state intact (no cold starts).
  router.AddShard(2);
  drive(router, 5);
  int moved = 0;
  auto* shard2 = router.shard(2);
  if (shard2 != nullptr) moved = static_cast<int>(shard2->sessions().size());
  std::printf("added shard 2: %d user(s) migrated to it, sessions "
              "carried over\n", moved);

  // 7. Restart with state. SaveSessions spills every shard's sessions
  //    to one snapshot; a new router — even with a different shard
  //    count — replays them onto its own topology.
  const std::string snapshot = dir + "/sessions.bin";
  if (!router.SaveSessions(snapshot)) {
    std::printf("session snapshot failed\n");
    return 1;
  }
  serve::ServeRouter restarted(policy->agent.get(), router_config,
                               /*initial_shards=*/4);
  if (!restarted.LoadSessions(snapshot)) {
    std::printf("session restore failed\n");
    return 1;
  }
  size_t restored = 0;
  for (int id : restarted.shard_ids()) {
    restored += restarted.shard(id)->sessions().size();
  }
  std::printf("restarted as 4 shards from %s: %zu/%d sessions restored\n",
              snapshot.c_str(), restored, kRouterUsers);
  drive(restarted, 2);

  // One merged view across all shard metric registries.
  const obs::MetricsSnapshot merged = restarted.MergedMetrics();
  for (const auto& counter : merged.counters) {
    if (counter.name == "serve.requests") {
      std::printf("merged shard metrics: serve.requests = %lld\n",
                  static_cast<long long>(counter.value));
    }
  }
  return 0;
}
