#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <map>
#include <set>

#include "core/context_agent.h"
#include "core/sim2rec_trainer.h"
#include "data/dataset.h"
#include "envs/lts_env.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/checkpoint_watcher.h"
#include "serve/hash_ring.h"
#include "serve/inference_server.h"
#include "serve/serve_router.h"
#include "serve/session_store.h"
#include "serve/trajectory_log.h"

namespace sim2rec {
namespace serve {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test (removed on destruction).
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("sim2rec_serve_test_" + name + "_" +
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

bool BitwiseEqual(const nn::Tensor& a, const nn::Tensor& b) {
  if (!a.SameShape(b)) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<size_t>(a.size())) == 0;
}

core::ContextAgentConfig TinySim2RecConfig() {
  core::ContextAgentConfig config;
  config.obs_dim = envs::kLtsObsDim;
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
  config.state_dim = envs::kLtsObsDim;
  config.latent_dim = 3;
  config.encoder_hidden = {16};
  config.decoder_hidden = {16};
  return config;
}

// ---------------------------------------------------------------------------
// nn::SaveModule / nn::LoadModule hardening (satellite 1).
// ---------------------------------------------------------------------------

TEST(Serialize, ExactDoubleRoundTrip) {
  ScratchDir dir("serialize_exact");
  const std::string path = (dir.path() / "mlp.bin").string();

  Rng rng(1);
  nn::Mlp source("m", 3, {5}, 2, rng);
  // Values a %g-style text format would mangle: non-terminating binary
  // fractions, subnormals, negative zero.
  std::vector<double> flat = source.FlatParams();
  const double specials[] = {1.0 / 3.0, 0.1, -0.0, 5e-324, 1e300, -2.0 / 7.0};
  for (size_t i = 0; i < flat.size(); ++i) {
    flat[i] = specials[i % 6] * (1.0 + static_cast<double>(i));
  }
  source.SetFlatParams(flat);
  ASSERT_TRUE(nn::SaveModule(path, source));

  Rng rng2(99);  // different init => loading must overwrite everything
  nn::Mlp restored("m", 3, {5}, 2, rng2);
  ASSERT_TRUE(nn::LoadModule(path, restored));

  const std::vector<double> a = source.FlatParams();
  const std::vector<double> b = restored.FlatParams();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(double) * a.size()), 0);
}

TEST(Serialize, CorruptedFilesReturnFalseWithoutPartialCommit) {
  ScratchDir dir("serialize_corrupt");
  Rng rng(2);
  nn::Mlp module("m", 4, {6}, 3, rng);
  const std::vector<double> before = module.FlatParams();

  // Missing file.
  EXPECT_FALSE(nn::LoadModule((dir.path() / "nope.bin").string(), module));

  // Garbage content (bad magic).
  const std::string garbage = (dir.path() / "garbage.bin").string();
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "this is not a module container";
  }
  EXPECT_FALSE(nn::LoadModule(garbage, module));

  // Truncated valid file.
  const std::string valid = (dir.path() / "valid.bin").string();
  ASSERT_TRUE(nn::SaveModule(valid, module));
  std::string bytes;
  {
    std::ifstream in(valid, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 16u);
  for (const size_t cut : {bytes.size() / 2, bytes.size() - 3, size_t{6}}) {
    const std::string truncated =
        (dir.path() / ("trunc_" + std::to_string(cut) + ".bin")).string();
    std::ofstream out(truncated, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_FALSE(nn::LoadModule(truncated, module)) << "cut=" << cut;
  }

  // Absurd length prefix after a valid header must not allocate or abort.
  const std::string bloated = (dir.path() / "bloat.bin").string();
  {
    std::ofstream out(bloated, std::ios::binary);
    out.write(bytes.data(), 8);  // magic + version
    const uint32_t count = 1;
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    const uint32_t huge = 0xfffffff0u;
    out.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  EXPECT_FALSE(nn::LoadModule(bloated, module));

  // Every failed load above must leave the module untouched (loads are
  // staged and committed atomically).
  const std::vector<double> after = module.FlatParams();
  ASSERT_EQ(before.size(), after.size());
  EXPECT_EQ(std::memcmp(before.data(), after.data(),
                        sizeof(double) * before.size()),
            0);
}

TEST(Serialize, LayoutMismatchReturnsFalse) {
  ScratchDir dir("serialize_layout");
  const std::string path = (dir.path() / "mlp.bin").string();
  Rng rng(3);
  nn::Mlp source("m", 3, {5}, 2, rng);
  ASSERT_TRUE(nn::SaveModule(path, source));
  nn::Mlp other_shape("m", 3, {7}, 2, rng);
  EXPECT_FALSE(nn::LoadModule(path, other_shape));
  nn::Mlp other_name("different", 3, {5}, 2, rng);
  EXPECT_FALSE(nn::LoadModule(path, other_name));
}

// ---------------------------------------------------------------------------
// Checkpoint round trip (satellite 2).
// ---------------------------------------------------------------------------

TEST(Checkpoint, RoundTripAfterTrainingIsBitwise) {
  ScratchDir dir("ckpt_roundtrip");

  Rng rng(21);
  sadae::Sadae sadae_model(TinySadaeConfig(), rng);
  core::ContextAgent agent(TinySim2RecConfig(), &sadae_model, rng);

  // Two real PPO iterations so the exported bundle carries trained
  // weights and non-trivial normalizer statistics.
  envs::LtsConfig env_config;
  env_config.num_users = 6;
  env_config.horizon = 5;
  envs::LtsEnv env(env_config);
  core::TrainLoopConfig loop;
  loop.iterations = 2;
  loop.eval_every = 0;
  loop.sadae_steps_per_iteration = 0;
  loop.seed = 22;
  core::ZeroShotTrainer trainer(&agent, {&env}, loop);
  trainer.Train();
  ASSERT_GT(agent.normalizer()->count(), 0);

  CheckpointMetadata metadata;
  metadata.variant = "Sim2Rec";
  metadata.seed = 21;
  metadata.train_iterations = 2;
  ASSERT_TRUE(SaveCheckpoint(dir.str(), agent, metadata));

  std::unique_ptr<LoadedPolicy> loaded = LoadCheckpoint(dir.str());
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->metadata.variant, "Sim2Rec");
  EXPECT_EQ(loaded->metadata.seed, 21u);
  EXPECT_EQ(loaded->metadata.train_iterations, 2);
  ASSERT_NE(loaded->sadae, nullptr);

  // Normalizer running stats restored exactly, and frozen for serving.
  const rl::ObservationNormalizer* orig = agent.normalizer();
  const rl::ObservationNormalizer* rest = loaded->agent->normalizer();
  ASSERT_NE(rest, nullptr);
  EXPECT_EQ(orig->count(), rest->count());
  EXPECT_TRUE(BitwiseEqual(orig->mean(), rest->mean()));
  EXPECT_TRUE(BitwiseEqual(orig->m2(), rest->m2()));
  EXPECT_TRUE(rest->frozen());

  // Identical serving behaviour on a fixed observation stream, including
  // the recurrent state carried across steps.
  const int kUsers = 4;
  const int kSteps = 6;
  core::ContextAgent::ServeBatch state_a = agent.InitialServeBatch(kUsers);
  core::ContextAgent::ServeBatch state_b =
      loaded->agent->InitialServeBatch(kUsers);
  Rng obs_rng(23);
  for (int t = 0; t < kSteps; ++t) {
    const nn::Tensor obs =
        nn::Tensor::Randn(kUsers, envs::kLtsObsDim, obs_rng);
    const auto out_a = agent.ServeStep(obs, &state_a);
    const auto out_b = loaded->agent->ServeStep(obs, &state_b);
    EXPECT_TRUE(BitwiseEqual(out_a.actions, out_b.actions)) << "t=" << t;
    EXPECT_TRUE(BitwiseEqual(out_a.values, out_b.values)) << "t=" << t;
    EXPECT_TRUE(BitwiseEqual(out_a.v, out_b.v)) << "t=" << t;
  }
  EXPECT_TRUE(BitwiseEqual(state_a.h, state_b.h));
  EXPECT_TRUE(BitwiseEqual(state_a.c, state_b.c));
  EXPECT_TRUE(BitwiseEqual(state_a.prev_actions, state_b.prev_actions));
}

TEST(Checkpoint, FeedForwardVariantRoundTrips) {
  ScratchDir dir("ckpt_ff");
  core::ContextAgentConfig config = TinySim2RecConfig();
  config.use_extractor = false;
  config.normalize_observations = false;
  Rng rng(31);
  core::ContextAgent agent(config, nullptr, rng);
  ASSERT_TRUE(SaveCheckpoint(dir.str(), agent));

  std::unique_ptr<LoadedPolicy> loaded = LoadCheckpoint(dir.str());
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->sadae, nullptr);
  EXPECT_FALSE(loaded->config.use_extractor);

  core::ContextAgent::ServeBatch sa = agent.InitialServeBatch(3);
  core::ContextAgent::ServeBatch sb = loaded->agent->InitialServeBatch(3);
  Rng obs_rng(32);
  const nn::Tensor obs = nn::Tensor::Randn(3, envs::kLtsObsDim, obs_rng);
  EXPECT_TRUE(BitwiseEqual(agent.ServeStep(obs, &sa).actions,
                           loaded->agent->ServeStep(obs, &sb).actions));
}

TEST(Checkpoint, LoadRejectsMissingAndCorruptBundles) {
  ScratchDir dir("ckpt_corrupt");
  EXPECT_EQ(LoadCheckpoint((dir.path() / "absent").string()), nullptr);

  Rng rng(41);
  sadae::Sadae sadae_model(TinySadaeConfig(), rng);
  core::ContextAgent agent(TinySim2RecConfig(), &sadae_model, rng);
  ASSERT_TRUE(SaveCheckpoint(dir.str(), agent));
  ASSERT_NE(LoadCheckpoint(dir.str()), nullptr);

  // Corrupt manifest: unparseable numbers must fail cleanly.
  const fs::path manifest = dir.path() / "manifest.txt";
  {
    std::ofstream out(manifest);
    out << "sim2rec_checkpoint 3\nobs_dim banana\n";
  }
  EXPECT_EQ(LoadCheckpoint(dir.str()), nullptr);

  // Restore a valid bundle, then truncate the weight container.
  ASSERT_TRUE(SaveCheckpoint(dir.str(), agent));
  const fs::path weights = dir.path() / "agent.bin";
  const auto full_size = fs::file_size(weights);
  fs::resize_file(weights, full_size / 2);
  EXPECT_EQ(LoadCheckpoint(dir.str()), nullptr);

  // And with the weights missing entirely.
  ASSERT_TRUE(SaveCheckpoint(dir.str(), agent));
  fs::remove(weights);
  EXPECT_EQ(LoadCheckpoint(dir.str()), nullptr);
}

// ---------------------------------------------------------------------------
// SessionStore (satellite 3).
// ---------------------------------------------------------------------------

SessionDims SmallDims() {
  SessionDims dims;
  dims.hidden = 4;
  dims.has_cell = true;
  dims.action_dim = 2;
  dims.latent_dim = 3;
  return dims;
}

TEST(SessionStore, LruEvictionAndFreshReentry) {
  const SessionDims dims = SmallDims();
  SessionStoreConfig config;
  config.ttl_ms = 0;  // isolate LRU behaviour
  // Cap the store at exactly three resident sessions.
  SessionStore sizing(dims, config);
  config.max_bytes = 3 * sizing.BytesPerSession();
  SessionStore store(dims, config);

  for (uint64_t user = 1; user <= 3; ++user) {
    Session s = store.FreshSession();
    s.h.Fill(static_cast<double>(user));
    store.Commit(user, std::move(s), /*now_ms=*/static_cast<int64_t>(user));
  }
  EXPECT_EQ(store.size(), 3u);

  // A fourth commit evicts the coldest session (user 1).
  store.Commit(4, store.FreshSession(), 4);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.stats().evictions, 1u);

  // The evicted user re-enters with fresh zeroed state.
  Session reentry = store.Acquire(1, 5);
  EXPECT_EQ(reentry.steps, 0);
  EXPECT_EQ(reentry.h.MaxAll(), 0.0);
  EXPECT_EQ(reentry.h.MinAll(), 0.0);

  // A surviving user's state is intact, and the hit refreshed its LRU
  // position: committing one more user now evicts 3, not 2.
  Session hit = store.Acquire(2, 6);
  EXPECT_EQ(hit.h(0, 0), 2.0);
  store.Commit(2, std::move(hit), 6);
  store.Commit(5, store.FreshSession(), 7);
  Session survivor = store.Acquire(2, 8);
  EXPECT_EQ(survivor.h(0, 0), 2.0);
  const auto stats = store.stats();
  EXPECT_GE(stats.hits, 2u);
  EXPECT_GE(stats.misses, 1u);
}

TEST(SessionStore, TtlExpiryResetsState) {
  const SessionDims dims = SmallDims();
  SessionStoreConfig config;
  config.ttl_ms = 100;
  SessionStore store(dims, config);

  Session s = store.FreshSession();
  s.h.Fill(7.0);
  s.steps = 12;
  store.Commit(9, std::move(s), /*now_ms=*/0);

  // Within the TTL: a hit with state preserved.
  Session hit = store.Acquire(9, 50);
  EXPECT_EQ(hit.h(0, 0), 7.0);
  EXPECT_EQ(hit.steps, 12);
  store.Commit(9, std::move(hit), 50);

  // Past the TTL: the user re-enters fresh and the expiry is counted.
  Session expired = store.Acquire(9, 50 + 101);
  EXPECT_EQ(expired.steps, 0);
  EXPECT_EQ(expired.h.MaxAll(), 0.0);
  EXPECT_EQ(store.stats().expirations, 1u);
}

TEST(SessionStore, AlwaysRetainsAtLeastOneSession) {
  SessionStoreConfig config;
  config.max_bytes = 1;  // absurdly small cap
  SessionStore store(SmallDims(), config);
  store.Commit(1, store.FreshSession(), 0);
  EXPECT_EQ(store.size(), 1u);
}

TEST(SessionStore, ConcurrentAccessIsSafe) {
  const SessionDims dims = SmallDims();
  SessionStoreConfig config;
  SessionStore sizing(dims, config);
  config.max_bytes = 8 * sizing.BytesPerSession();
  config.ttl_ms = 0;
  SessionStore store(dims, config);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Overlapping user-id ranges so threads contend on the same
        // entries as well as on the LRU list structure.
        const uint64_t user = static_cast<uint64_t>((t * 7 + i) % 12);
        const int64_t now = t * kOpsPerThread + i;
        Session s = store.Acquire(user, now);
        s.h.Fill(static_cast<double>(user));
        ++s.steps;
        store.Commit(user, std::move(s), now);
        if (i % 17 == 0) store.Erase(user);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_LE(store.size(), 8u);
  const auto stats = store.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.expirations,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
}

// ---------------------------------------------------------------------------
// InferenceServer: batching identity and the F_exec guard.
// ---------------------------------------------------------------------------

/// Per-(user, step) deterministic observation, distinct across users so a
/// batched forward mixing users would be caught.
nn::Tensor ObsFor(int user, int step) {
  nn::Tensor obs(1, envs::kLtsObsDim);
  for (int c = 0; c < envs::kLtsObsDim; ++c) {
    obs(0, c) = 0.1 * (user + 1) + 0.01 * (step + 1) + 0.001 * c;
  }
  return obs;
}

/// Serves `steps` steps for each of `users` users from one thread, user
/// by user, on a fresh server: every batch has exactly one row.
std::vector<std::vector<nn::Tensor>> OneThreadReference(
    const core::ContextAgent& agent, int users, int steps) {
  InferenceServer server(&agent, InferenceServerConfig{});
  std::vector<std::vector<nn::Tensor>> reference(users);
  for (int u = 0; u < users; ++u) {
    for (int t = 0; t < steps; ++t) {
      reference[u].push_back(server.Act(u, ObsFor(u, t)).action);
    }
  }
  const InferenceServerStats stats = server.stats();
  // A lone caller never waits for stragglers: each request is a batch.
  EXPECT_EQ(stats.requests, users * steps);
  EXPECT_EQ(stats.batches, stats.requests);
  EXPECT_EQ(stats.max_batch, 1);
  return reference;
}

/// Drives `callers` threads, thread u serving user u for `steps` steps,
/// and returns each user's action stream.
std::vector<std::vector<nn::Tensor>> ConcurrentRun(InferenceServer& server,
                                                   int callers, int steps) {
  std::vector<std::vector<nn::Tensor>> answers(callers);
  std::vector<std::thread> clients;
  for (int u = 0; u < callers; ++u) {
    clients.emplace_back([&server, &answers, u, steps] {
      for (int t = 0; t < steps; ++t) {
        answers[u].push_back(server.Act(u, ObsFor(u, t)).action);
      }
    });
  }
  for (auto& th : clients) th.join();
  return answers;
}

void ExpectSameStreams(const std::vector<std::vector<nn::Tensor>>& want,
                       const std::vector<std::vector<nn::Tensor>>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t u = 0; u < want.size(); ++u) {
    ASSERT_EQ(got[u].size(), want[u].size());
    for (size_t t = 0; t < want[u].size(); ++t) {
      EXPECT_TRUE(BitwiseEqual(want[u][t], got[u][t]))
          << "user=" << u << " step=" << t;
    }
  }
}

TEST(InferenceServer, BatchedIsBitwiseIdenticalToSerial) {
  Rng rng(51);
  sadae::Sadae sadae_model(TinySadaeConfig(), rng);
  core::ContextAgent agent(TinySim2RecConfig(), &sadae_model, rng);

  constexpr int kCallers = 8;
  constexpr int kSteps = 5;
  const std::vector<std::vector<nn::Tensor>> reference =
      OneThreadReference(agent, kCallers, kSteps);

  // Concurrent runs: all users in flight at once, so requests that
  // arrive while a batch runs go out together as the next batch. Repeat
  // on fresh servers until the scheduler actually produced a batch of
  // two or more rows — every round must match the reference bitwise,
  // whatever batch compositions it happened to produce.
  InferenceServerConfig config;
  config.max_batch_size = kCallers;
  int max_batch = 0;
  for (int round = 0; round < 50 && max_batch < 2; ++round) {
    InferenceServer server(&agent, config);
    ExpectSameStreams(reference, ConcurrentRun(server, kCallers, kSteps));
    const InferenceServerStats stats = server.stats();
    EXPECT_EQ(stats.requests, kCallers * kSteps);
    EXPECT_LE(stats.max_batch, kCallers);
    EXPECT_GE(stats.latency_p99_us, stats.latency_p50_us);
    max_batch = stats.max_batch;
  }
  EXPECT_GE(max_batch, 2) << "overlapping requests never coalesced";
}

TEST(InferenceServer, BacklogLongerThanMaxBatchIsFullyServed) {
  Rng rng(52);
  sadae::Sadae sadae_model(TinySadaeConfig(), rng);
  core::ContextAgent agent(TinySim2RecConfig(), &sadae_model, rng);

  constexpr int kCallers = 8;
  constexpr int kSteps = 20;
  const std::vector<std::vector<nn::Tensor>> reference =
      OneThreadReference(agent, kCallers, kSteps);

  // Eight callers against two-row batches: whenever more than two
  // requests queue up behind a running batch, a waiter whose request
  // was left out must run a later batch itself. Observability is off at
  // run time: that silences only the registry mirror, never the
  // server's own stats.
  InferenceServerConfig config;
  config.max_batch_size = 2;
  InferenceServer server(&agent, config);
  const bool obs_was_enabled = obs::Enabled();
  obs::SetEnabled(false);
  ExpectSameStreams(reference, ConcurrentRun(server, kCallers, kSteps));
  const InferenceServerStats stats = server.stats();
  obs::SetEnabled(obs_was_enabled);
  EXPECT_EQ(stats.requests, kCallers * kSteps);
  EXPECT_LE(stats.max_batch, 2);
  EXPECT_GE(stats.batches, stats.requests / 2);
  EXPECT_EQ(stats.mean_batch_occupancy,
            static_cast<double>(stats.requests) / stats.batches);
  EXPECT_GT(stats.latency_p50_us, 0.0);
  EXPECT_GT(stats.latency_p95_us, 0.0);
  EXPECT_GT(stats.latency_p99_us, 0.0);
  EXPECT_EQ(stats.queue_depth, 0);
}

TEST(InferenceServer, ExecGuardClampsAndFlags) {
  core::ContextAgentConfig config = TinySim2RecConfig();
  config.use_extractor = false;
  config.normalize_observations = false;
  // Push the deterministic policy mean far outside the executable box.
  config.action_bias = {5.0};
  Rng rng(61);
  core::ContextAgent agent(config, nullptr, rng);

  InferenceServerConfig server_config;
  server_config.action_low = {0.0};
  server_config.action_high = {1.0};
  server_config.exec_tolerance = 0.02;
  InferenceServer server(&agent, server_config);

  const ServeReply reply = server.Act(1, ObsFor(0, 0));
  EXPECT_TRUE(reply.exec_clamped);
  EXPECT_DOUBLE_EQ(reply.action(0, 0), 1.02);
  EXPECT_EQ(server.stats().exec_clamps, 1);

  // The *raw* action feeds the recurrent state (training parity): the
  // stored previous action must be the unclamped policy output.
  Session session = server.sessions().Acquire(1, 0);
  EXPECT_GT(session.prev_action(0, 0), 1.02);
}

TEST(InferenceServer, SessionsEndAndEvictionsSurfaceInStats) {
  core::ContextAgentConfig config = TinySim2RecConfig();
  Rng rng(71);
  sadae::Sadae sadae_model(TinySadaeConfig(), rng);
  core::ContextAgent agent(config, &sadae_model, rng);

  InferenceServerConfig server_config;
  // Tiny cap: only a couple of sessions stay resident.
  server_config.sessions.max_bytes = 1;
  InferenceServer server(&agent, server_config);

  for (int u = 0; u < 4; ++u) server.Act(u, ObsFor(u, 0));
  EXPECT_GE(server.stats().sessions.evictions, 3u);

  server.Act(9, ObsFor(9, 0));
  server.EndSession(9);
  Session fresh = server.sessions().Acquire(9, 0);
  EXPECT_EQ(fresh.steps, 0);
}

TEST(InferenceServer, ShutdownIsIdempotentAndDrains) {
  core::ContextAgentConfig config = TinySim2RecConfig();
  config.use_extractor = false;
  Rng rng(81);
  core::ContextAgent agent(config, nullptr, rng);
  InferenceServer server(&agent, InferenceServerConfig{});

  std::vector<std::thread> clients;
  for (int u = 0; u < 4; ++u) {
    clients.emplace_back([&server, u] {
      for (int t = 0; t < 3; ++t) server.Act(u, ObsFor(u, t));
    });
  }
  for (auto& th : clients) th.join();
  server.Shutdown();
  server.Shutdown();
  EXPECT_EQ(server.stats().requests, 12);
}

// ---------------------------------------------------------------------------
// HashRing: the consistency properties the router's handoff relies on.
// ---------------------------------------------------------------------------

TEST(HashRing, EmptyRingOwnsNothing) {
  HashRing ring;
  EXPECT_EQ(ring.NodeFor(0), -1);
  EXPECT_EQ(ring.NodeFor(~uint64_t{0}), -1);
  EXPECT_EQ(ring.num_nodes(), 0);
}

TEST(HashRing, BalanceAndOrderIndependence) {
  constexpr int kKeys = 20000;
  HashRing ring;
  for (int n = 0; n < 4; ++n) ring.AddNode(n);

  std::map<int, int> owned;
  for (int k = 0; k < kKeys; ++k) {
    const int node = ring.NodeFor(static_cast<uint64_t>(k));
    ASSERT_GE(node, 0);
    ASSERT_LT(node, 4);
    ++owned[node];
  }
  // Virtual nodes keep the keyspace split roughly even: every node owns
  // a meaningful share, none dominates (mean share is kKeys / 4).
  for (int n = 0; n < 4; ++n) {
    EXPECT_GT(owned[n], kKeys / 10) << "node " << n;
    EXPECT_LT(owned[n], kKeys / 2) << "node " << n;
  }

  // The mapping is a pure function of the node-id *set*: a ring built
  // in a different insertion order (and via a detour) agrees on every
  // key, which is what lets independent replicas route identically.
  HashRing other;
  other.AddNode(3);
  other.AddNode(0);
  other.AddNode(7);  // detour: added then removed
  other.AddNode(2);
  other.AddNode(1);
  other.RemoveNode(7);
  for (int k = 0; k < kKeys; ++k) {
    const uint64_t key = static_cast<uint64_t>(k);
    ASSERT_EQ(ring.NodeFor(key), other.NodeFor(key)) << "key " << k;
  }
}

TEST(HashRing, AddMovesKeysOnlyToNewNodeAndRemoveRestores) {
  constexpr int kKeys = 20000;
  HashRing ring;
  for (int n = 0; n < 3; ++n) ring.AddNode(n);

  std::vector<int> before(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    before[k] = ring.NodeFor(static_cast<uint64_t>(k));
  }

  ring.AddNode(3);
  int moved = 0;
  for (int k = 0; k < kKeys; ++k) {
    const int now = ring.NodeFor(static_cast<uint64_t>(k));
    if (now != before[k]) {
      // Every reassigned key lands on the new node — never on another
      // surviving node — so a reshard only ever drains *into* the
      // added shard.
      EXPECT_EQ(now, 3) << "key " << k;
      ++moved;
    }
  }
  // Expected move fraction is 1/4; allow generous slack around it.
  EXPECT_GT(moved, kKeys / 10);
  EXPECT_LT(moved, kKeys / 2);

  // Removing the node is the exact mirror image: the original mapping
  // comes back key for key.
  ring.RemoveNode(3);
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_EQ(ring.NodeFor(static_cast<uint64_t>(k)), before[k])
        << "key " << k;
  }
}

// ---------------------------------------------------------------------------
// ServeRouter (the sharded front end).
// ---------------------------------------------------------------------------

TEST(ServeRouter, OneVsFourShardsBitwiseIdenticalReplies) {
  Rng rng(91);
  sadae::Sadae sadae_model(TinySadaeConfig(), rng);
  core::ContextAgent agent(TinySim2RecConfig(), &sadae_model, rng);

  const ServeRouterConfig config{};
  ServeRouter one(&agent, config, /*initial_shards=*/1);
  ServeRouter four(&agent, config, /*initial_shards=*/4);
  EXPECT_EQ(one.num_shards(), 1);
  EXPECT_EQ(four.num_shards(), 4);

  // Same request stream through both topologies. Sessions are
  // user-affine and every shard serves the same agent, so sharding must
  // not change a single bit of any reply — including the value head and
  // the recurrent state threaded across steps.
  constexpr int kUsers = 6;
  constexpr int kSteps = 5;
  std::set<int> shards_used;
  for (int t = 0; t < kSteps; ++t) {
    for (int u = 0; u < kUsers; ++u) {
      const uint64_t user = static_cast<uint64_t>(u);
      const nn::Tensor obs = ObsFor(u, t);
      const ServeReply a = one.Act(user, obs);
      const ServeReply b = four.Act(user, obs);
      EXPECT_TRUE(BitwiseEqual(a.action, b.action))
          << "user=" << u << " step=" << t;
      EXPECT_EQ(a.value, b.value) << "user=" << u << " step=" << t;
      EXPECT_EQ(a.exec_clamped, b.exec_clamped);
      shards_used.insert(four.ShardFor(user));
    }
  }
  // The stream actually exercised more than one shard (otherwise the
  // test proves nothing about routing).
  EXPECT_GT(shards_used.size(), 1u);
}

TEST(ServeRouter, RebalanceUnderLoadKeepsEverySession) {
  Rng rng(92);
  sadae::Sadae sadae_model(TinySadaeConfig(), rng);
  core::ContextAgent agent(TinySim2RecConfig(), &sadae_model, rng);

  ServeRouter router(&agent, ServeRouterConfig{}, /*initial_shards=*/2);

  constexpr int kThreads = 4;
  constexpr int kUsersPerThread = 4;
  constexpr int kSteps = 30;
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&router, c] {
      for (int t = 0; t < kSteps; ++t) {
        for (int i = 0; i < kUsersPerThread; ++i) {
          const int u = c * kUsersPerThread + i;
          router.Act(static_cast<uint64_t>(u), ObsFor(u, t));
        }
      }
    });
  }
  // Reshard repeatedly while the clients hammer the router: grow to 4
  // shards, then shrink one away. Each change drains in-flight requests
  // and hands the reassigned sessions to their new owners.
  router.AddShard(2);
  router.AddShard(3);
  EXPECT_FALSE(router.AddShard(3));  // duplicate id refused
  router.RemoveShard(0);
  for (auto& th : clients) th.join();

  EXPECT_EQ(router.num_shards(), 3);
  EXPECT_FALSE(router.RemoveShard(99));  // absent id refused

  // No session lost, none duplicated, none stranded on a non-owner:
  // every user's session sits on exactly the shard the ring names, with
  // the full step count — a dropped or re-created session would show
  // steps < kSteps.
  constexpr int kUsers = kThreads * kUsersPerThread;
  std::map<uint64_t, int> holder;  // user -> shard holding its session
  std::map<uint64_t, int64_t> steps;
  for (const int id : router.shard_ids()) {
    for (const auto& [user, session] :
         router.shard(id)->sessions().ExportSessions()) {
      ASSERT_EQ(holder.count(user), 0u)
          << "user " << user << " held by shards " << holder[user]
          << " and " << id;
      holder[user] = id;
      steps[user] = session.steps;
    }
  }
  ASSERT_EQ(holder.size(), static_cast<size_t>(kUsers));
  for (int u = 0; u < kUsers; ++u) {
    const uint64_t user = static_cast<uint64_t>(u);
    EXPECT_EQ(holder[user], router.ShardFor(user)) << "user " << u;
    EXPECT_EQ(steps[user], kSteps) << "user " << u;
  }

  // The merged metrics view spans all surviving shards' registries.
  const obs::MetricsSnapshot merged = router.MergedMetrics();
  if (obs::Enabled()) {
    int64_t requests = 0;
    for (const auto& counter : merged.counters) {
      if (counter.name == "serve.requests") requests = counter.value;
    }
    // Requests served before shard 0 was removed left with its
    // registry, so the merged total counts the survivors only.
    EXPECT_GT(requests, 0);
    EXPECT_LE(requests, static_cast<int64_t>(kUsers) * kSteps);
  }
}

TEST(ServeRouter, SessionSnapshotRestoresOntoDifferentTopology) {
  ScratchDir dir("router_snapshot");
  Rng rng(93);
  sadae::Sadae sadae_model(TinySadaeConfig(), rng);
  core::ContextAgent agent(TinySim2RecConfig(), &sadae_model, rng);

  constexpr int kUsers = 10;
  constexpr int kSteps = 4;
  ServeRouter router(&agent, ServeRouterConfig{}, /*initial_shards=*/3);
  for (int t = 0; t < kSteps; ++t) {
    for (int u = 0; u < kUsers; ++u) {
      router.Act(static_cast<uint64_t>(u), ObsFor(u, t));
    }
  }
  std::map<uint64_t, Session> expected;
  for (const int id : router.shard_ids()) {
    for (auto& [user, session] :
         router.shard(id)->sessions().ExportSessions()) {
      expected.emplace(user, std::move(session));
    }
  }
  ASSERT_EQ(expected.size(), static_cast<size_t>(kUsers));

  const std::string snapshot = (dir.path() / "sessions.bin").string();
  ASSERT_TRUE(router.SaveSessions(snapshot));

  // Restore onto a *different* shard count: every record re-routes
  // through the new ring, and the recurrent state survives bit-exactly.
  ServeRouter restarted(&agent, ServeRouterConfig{}, /*initial_shards=*/1);
  ASSERT_TRUE(restarted.LoadSessions(snapshot));
  size_t restored = 0;
  for (const int id : restarted.shard_ids()) {
    for (const auto& [user, session] :
         restarted.shard(id)->sessions().ExportSessions()) {
      ++restored;
      ASSERT_EQ(expected.count(user), 1u);
      const Session& want = expected.at(user);
      EXPECT_TRUE(BitwiseEqual(want.h, session.h)) << "user " << user;
      EXPECT_TRUE(BitwiseEqual(want.c, session.c)) << "user " << user;
      EXPECT_TRUE(BitwiseEqual(want.prev_action, session.prev_action));
      EXPECT_TRUE(BitwiseEqual(want.v, session.v)) << "user " << user;
      EXPECT_EQ(want.steps, session.steps);
      EXPECT_EQ(want.last_used_ms, session.last_used_ms);
    }
  }
  EXPECT_EQ(restored, static_cast<size_t>(kUsers));

  // Restored state behaves identically to never-interrupted state: the
  // original router and the restarted one answer the next request the
  // same way.
  for (int u = 0; u < kUsers; ++u) {
    const nn::Tensor obs = ObsFor(u, kSteps);
    const ServeReply a = router.Act(static_cast<uint64_t>(u), obs);
    const ServeReply b = restarted.Act(static_cast<uint64_t>(u), obs);
    EXPECT_TRUE(BitwiseEqual(a.action, b.action)) << "user " << u;
  }
}

// ---------------------------------------------------------------------------
// SessionStore spill/restore (snapshot file hardening).
// ---------------------------------------------------------------------------

Session FilledSession(SessionStore& store, double seed) {
  Session s = store.FreshSession();
  s.h.Fill(seed);
  if (s.c.size() > 0) s.c.Fill(seed + 0.25);
  s.prev_action.Fill(seed + 0.5);
  if (s.v.size() > 0) s.v.Fill(seed + 0.75);
  s.steps = static_cast<int64_t>(seed * 10);
  return s;
}

TEST(SessionStore, SaveLoadRoundTripIsBitExact) {
  ScratchDir dir("session_snapshot");
  const std::string path = (dir.path() / "sessions.bin").string();
  const SessionDims dims = SmallDims();
  SessionStoreConfig config;
  config.ttl_ms = 0;
  SessionStore store(dims, config);
  for (uint64_t user = 1; user <= 5; ++user) {
    store.Commit(user, FilledSession(store, 1.0 / static_cast<double>(user)),
                 static_cast<int64_t>(user * 100));
  }
  ASSERT_TRUE(store.Save(path));

  SessionStore loaded(dims, config);
  loaded.Commit(99, FilledSession(loaded, 9.0), 0);  // must be replaced
  ASSERT_TRUE(loaded.Load(path));
  EXPECT_EQ(loaded.size(), 5u);

  const auto original = store.ExportSessions();
  const auto restored = loaded.ExportSessions();
  ASSERT_EQ(original.size(), restored.size());
  for (size_t i = 0; i < original.size(); ++i) {
    // Same LRU order, same ids, bit-exact tensors, preserved times.
    EXPECT_EQ(original[i].first, restored[i].first);
    const Session& a = original[i].second;
    const Session& b = restored[i].second;
    EXPECT_TRUE(BitwiseEqual(a.h, b.h));
    EXPECT_TRUE(BitwiseEqual(a.c, b.c));
    EXPECT_TRUE(BitwiseEqual(a.prev_action, b.prev_action));
    EXPECT_TRUE(BitwiseEqual(a.v, b.v));
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.last_used_ms, b.last_used_ms);
  }
}

TEST(SessionStore, LoadRejectsTruncatedAndCorruptSnapshots) {
  ScratchDir dir("session_corrupt");
  const std::string path = (dir.path() / "sessions.bin").string();
  const SessionDims dims = SmallDims();
  SessionStoreConfig config;
  SessionStore store(dims, config);
  for (uint64_t user = 1; user <= 3; ++user) {
    store.Commit(user, FilledSession(store, static_cast<double>(user)),
                 static_cast<int64_t>(user));
  }
  ASSERT_TRUE(store.Save(path));

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 32u);

  // The victim store must come through every failed load untouched.
  SessionStore victim(dims, config);
  victim.Commit(42, FilledSession(victim, 4.2), 7);

  // Missing file.
  EXPECT_FALSE(victim.Load((dir.path() / "absent.bin").string()));

  // Truncations at several depths: inside the header, inside the
  // session payload, and just shy of the end.
  for (const size_t cut :
       {size_t{3}, size_t{10}, bytes.size() / 2, bytes.size() - 1}) {
    const std::string trunc =
        (dir.path() / ("trunc_" + std::to_string(cut) + ".bin")).string();
    std::ofstream out(trunc, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_FALSE(victim.Load(trunc)) << "cut=" << cut;
  }

  // Bad magic.
  {
    std::string garbled = bytes;
    garbled[0] = 'X';
    std::ofstream out(path, std::ios::binary);
    out.write(garbled.data(), static_cast<std::streamsize>(garbled.size()));
  }
  EXPECT_FALSE(victim.Load(path));

  // A flipped payload byte must trip the CRC.
  {
    std::string garbled = bytes;
    garbled[bytes.size() - 5] ^= 0x40;
    std::ofstream out(path, std::ios::binary);
    out.write(garbled.data(), static_cast<std::streamsize>(garbled.size()));
  }
  EXPECT_FALSE(victim.Load(path));

  // A snapshot with the wrong dims is rejected too (staged before
  // commit, so still no change).
  SessionDims other = dims;
  other.hidden = dims.hidden + 1;
  SessionStore mismatched(other, config);
  mismatched.Commit(1, mismatched.FreshSession(), 0);
  const std::string ok = (dir.path() / "ok.bin").string();
  ASSERT_TRUE(store.Save(ok));
  EXPECT_FALSE(mismatched.Load(ok));

  // Untouched: one session, original contents.
  EXPECT_EQ(victim.size(), 1u);
  Session intact = victim.Acquire(42, 7);
  EXPECT_EQ(intact.h(0, 0), 4.2);
}

TEST(SessionStore, RestorePreservesAgeAndReproducesLruOrder) {
  const SessionDims dims = SmallDims();
  SessionStoreConfig config;
  config.ttl_ms = 1000;
  SessionStore source(dims, config);
  source.Commit(1, FilledSession(source, 1.0), /*now_ms=*/10);
  source.Commit(2, FilledSession(source, 2.0), /*now_ms=*/20);
  source.Commit(3, FilledSession(source, 3.0), /*now_ms=*/30);

  // Replaying an MRU-first export through Restore reproduces the source
  // store's LRU order and keeps each session's recorded age (a handoff
  // must not rejuvenate idle sessions past their TTL).
  SessionStore target(dims, config);
  for (auto& [user, session] : source.ExportSessions()) {
    target.Restore(user, std::move(session));
  }
  const auto out = target.ExportSessions();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].first, 3u);
  EXPECT_EQ(out[1].first, 2u);
  EXPECT_EQ(out[2].first, 1u);
  EXPECT_EQ(out[2].second.last_used_ms, 10);

  // User 1 was last used at t=10 with a 1000ms TTL: alive at t=900,
  // expired at t=1100 — exactly as if the handoff never happened.
  Session alive = target.Acquire(1, 900);
  EXPECT_EQ(alive.h(0, 0), 1.0);
  target.Commit(1, std::move(alive), 900);
  Session expired = target.Acquire(2, 1100);
  EXPECT_EQ(expired.steps, 0);
  EXPECT_EQ(expired.h.MaxAll(), 0.0);
}

// ---------------------------------------------------------------------------
// Checkpoint integrity and versioning.
// ---------------------------------------------------------------------------

/// Rewrites the version line of a saved manifest, leaving every other
/// line as written.
void SetManifestVersion(const fs::path& manifest, int version) {
  std::string text;
  {
    std::ifstream in(manifest);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const std::string current = "sim2rec_checkpoint 3";
  const size_t at = text.find(current);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, current.size(),
               "sim2rec_checkpoint " + std::to_string(version));
  std::ofstream out(manifest);
  out << text;
}

TEST(Checkpoint, LoadExDistinguishesCorruptionFromUnsupportedVersion) {
  ScratchDir dir("ckpt_v2");
  Rng rng(101);
  sadae::Sadae sadae_model(TinySadaeConfig(), rng);
  core::ContextAgent agent(TinySim2RecConfig(), &sadae_model, rng);
  ASSERT_TRUE(SaveCheckpoint(dir.str(), agent));

  // Baseline: a fresh bundle loads with kOk and a usable policy.
  {
    LoadResult result = LoadCheckpointEx(dir.str());
    EXPECT_EQ(result.status, LoadStatus::kOk);
    ASSERT_NE(result.policy, nullptr);
  }

  // Not a checkpoint directory at all.
  EXPECT_EQ(LoadCheckpointEx((dir.path() / "absent").string()).status,
            LoadStatus::kNotFound);

  const fs::path manifest = dir.path() / "manifest.txt";
  std::string manifest_text;
  {
    std::ifstream in(manifest);
    manifest_text.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
  }
  ASSERT_NE(manifest_text.find("sim2rec_checkpoint 3"), std::string::npos);
  ASSERT_NE(manifest_text.find("crc32.agent.bin"), std::string::npos);

  // A flipped bit in a weight file trips its CRC: kCorrupt, and the
  // convenience loader returns null instead of a silently wrong policy.
  {
    const fs::path weights = dir.path() / "agent.bin";
    std::fstream f(weights, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(weights) / 2));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x01);
    f.write(&byte, 1);
  }
  EXPECT_EQ(LoadCheckpointEx(dir.str()).status, LoadStatus::kCorrupt);
  EXPECT_EQ(LoadCheckpoint(dir.str()), nullptr);

  // Any other format version, older or newer, is *not* corruption —
  // the bundle may be fine; this binary just does not read it.
  for (const int version : {1, 2, 99}) {
    ASSERT_TRUE(SaveCheckpoint(dir.str(), agent));
    SetManifestVersion(manifest, version);
    LoadResult result = LoadCheckpointEx(dir.str());
    EXPECT_EQ(result.status, LoadStatus::kVersionUnsupported)
        << "v" << version;
    EXPECT_EQ(result.policy, nullptr);
  }

  // A manifest missing its CRC lines is corrupt: the lines are
  // mandatory, so the integrity guarantee cannot be checked.
  {
    std::istringstream in(manifest_text);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("crc32.", 0) != 0) out << line << '\n';
    }
    std::ofstream file(manifest);
    file << out.str();
  }
  EXPECT_EQ(LoadCheckpointEx(dir.str()).status, LoadStatus::kCorrupt);

  // Even ONE missing crc32 line is kCorrupt — the rule is per weight
  // file, not all-or-nothing (pins the LoadStatus::kCorrupt contract
  // documented in serve/checkpoint.h and DESIGN.md).
  {
    std::istringstream in(manifest_text);
    std::ostringstream out;
    std::string line;
    bool dropped_one = false;
    while (std::getline(in, line)) {
      if (!dropped_one && line.rfind("crc32.", 0) == 0) {
        dropped_one = true;
        continue;
      }
      out << line << '\n';
    }
    ASSERT_TRUE(dropped_one);
    std::ofstream file(manifest);
    file << out.str();
  }
  EXPECT_EQ(LoadCheckpointEx(dir.str()).status, LoadStatus::kCorrupt);
}

TEST(Checkpoint, GenerationRoundTripAndInfoPeek) {
  ScratchDir dir("ckpt_generation");
  Rng rng(107);
  sadae::Sadae sadae_model(TinySadaeConfig(), rng);
  core::ContextAgent agent(TinySim2RecConfig(), &sadae_model, rng);

  // Generation 0 (not part of a sequence): the key is not written, so
  // pre-watcher bundles stay byte-for-byte reproducible.
  ASSERT_TRUE(SaveCheckpoint(dir.str(), agent));
  CheckpointInfo info;
  ASSERT_TRUE(ReadCheckpointInfo(dir.str(), &info));
  EXPECT_EQ(info.version, 3);
  EXPECT_EQ(info.generation, 0u);

  CheckpointMetadata metadata;
  metadata.generation = 42;
  ASSERT_TRUE(SaveCheckpoint(dir.str(), agent, metadata));
  ASSERT_TRUE(ReadCheckpointInfo(dir.str(), &info));
  EXPECT_EQ(info.generation, 42u);
  LoadResult result = LoadCheckpointEx(dir.str());
  ASSERT_TRUE(result.status == LoadStatus::kOk);
  EXPECT_EQ(result.policy->metadata.generation, 42u);

  // The peek is cheap and safe: no manifest, no info.
  EXPECT_FALSE(
      ReadCheckpointInfo((dir.path() / "absent").string(), &info));
}

// ---------------------------------------------------------------------------
// Checkpoint hot-swap: InferenceServer::SwapModel, ServeRouter::SwapModel,
// and the CheckpointWatcher that drives them (PR 10 tentpole).
// ---------------------------------------------------------------------------

/// Publishes `agent` as generation `generation` under `base/gen-NNNNNN`,
/// the layout the CheckpointWatcher scans: SaveCheckpoint with
/// metadata.generation set. Returns the bundle directory.
std::string SaveGeneration(const fs::path& base, core::ContextAgent& agent,
                           uint64_t generation) {
  char name[32];
  std::snprintf(name, sizeof(name), "gen-%06llu",
                static_cast<unsigned long long>(generation));
  const std::string dir = (base / name).string();
  CheckpointMetadata metadata;
  metadata.generation = generation;
  EXPECT_TRUE(SaveCheckpoint(dir, agent, metadata));
  return dir;
}

int64_t TotalActiveSessions(ServeRouter& router) {
  int64_t active = 0;
  for (const int id : router.shard_ids()) {
    active += static_cast<int64_t>(router.shard(id)->sessions().size());
  }
  return active;
}

TEST(InferenceServer, SwapModelKeepsSessionsAndRefusesIncompatible) {
  Rng rng_a(111), rng_b(112);
  sadae::Sadae sadae_a(TinySadaeConfig(), rng_a);
  core::ContextAgent agent_a(TinySim2RecConfig(), &sadae_a, rng_a);
  sadae::Sadae sadae_b(TinySadaeConfig(), rng_b);
  core::ContextAgent agent_b(TinySim2RecConfig(), &sadae_b, rng_b);

  InferenceServer server(&agent_a, InferenceServerConfig{});

  constexpr int kUsers = 4;
  std::vector<ServeReply> before;
  for (int t = 0; t < 3; ++t) {
    for (int u = 0; u < kUsers; ++u) {
      before.push_back(server.Act(u, ObsFor(u, t)));
    }
  }
  ASSERT_EQ(server.sessions().size(), static_cast<size_t>(kUsers));

  // Same dims, different weights: the swap succeeds, resident sessions
  // (and their step counts) survive, and subsequent replies come from
  // the new model.
  // A swap needs the plan frozen from the new agent; without one
  // nothing moves.
  EXPECT_FALSE(server.SwapModel(&agent_b, nullptr));
  EXPECT_EQ(&server.agent(), &agent_a);
  ASSERT_TRUE(
      server.SwapModel(&agent_b, infer::InferencePlan::Freeze(agent_b).plan));
  EXPECT_EQ(server.sessions().size(), static_cast<size_t>(kUsers));
  const ServeReply after = server.Act(0, ObsFor(0, 3));
  EXPECT_FALSE(BitwiseEqual(before[0].action, after.action));
  Session session = server.sessions().Acquire(0, 0);
  EXPECT_EQ(session.steps, 4);  // 3 pre-swap steps + 1 post-swap

  // Different recurrent width: resident state would be shape-invalid,
  // so the swap is refused and serving continues on agent_b.
  core::ContextAgentConfig wide = TinySim2RecConfig();
  wide.lstm_hidden = 16;
  Rng rng_c(113);
  sadae::Sadae sadae_c(TinySadaeConfig(), rng_c);
  core::ContextAgent agent_c(wide, &sadae_c, rng_c);
  EXPECT_FALSE(
      server.SwapModel(&agent_c, infer::InferencePlan::Freeze(agent_c).plan));
  EXPECT_FALSE(server.SwapModel(nullptr, nullptr));
  EXPECT_EQ(&server.agent(), &agent_b);
  server.Act(1, ObsFor(1, 3));  // still serving
}

TEST(ServeRouter, HotSwapToIdenticalWeightsIsBitwiseInvisible) {
  ScratchDir dir("router_hot_swap");
  Rng rng(121);
  sadae::Sadae sadae_model(TinySadaeConfig(), rng);
  core::ContextAgent agent(TinySim2RecConfig(), &sadae_model, rng);

  // A bit-identical clone of the serving agent, restored through the
  // checkpoint path exactly as the watcher would restore it.
  ASSERT_TRUE(SaveCheckpoint(dir.str(), agent));
  LoadResult clone = LoadCheckpointEx(dir.str());
  ASSERT_TRUE(clone.status == LoadStatus::kOk);

  ServeRouter swapped(&agent, ServeRouterConfig{}, /*initial_shards=*/2);
  ServeRouter control(&agent, ServeRouterConfig{}, /*initial_shards=*/2);

  constexpr int kUsers = 12;
  constexpr int kSteps = 3;
  for (int t = 0; t < kSteps; ++t) {
    for (int u = 0; u < kUsers; ++u) {
      const nn::Tensor obs = ObsFor(u, t);
      ASSERT_TRUE(
          BitwiseEqual(swapped.Act(u, obs).action, control.Act(u, obs).action));
    }
  }

  // Swap mid-stream. Same weights, new model object: every session
  // survives and the remaining replies stay bitwise-identical to the
  // router that never swapped.
  ASSERT_EQ(TotalActiveSessions(swapped), kUsers);
  ASSERT_TRUE(swapped.SwapModel(clone.policy->agent.get(),
                                FreezePlan(*clone.policy)));
  EXPECT_EQ(TotalActiveSessions(swapped), kUsers);
  for (int t = kSteps; t < 2 * kSteps; ++t) {
    for (int u = 0; u < kUsers; ++u) {
      const nn::Tensor obs = ObsFor(u, t);
      EXPECT_TRUE(
          BitwiseEqual(swapped.Act(u, obs).action, control.Act(u, obs).action))
          << "user=" << u << " step=" << t;
    }
  }

  // A shard added after the swap serves the swapped-in agent too.
  ASSERT_TRUE(swapped.AddShard(2));
  EXPECT_EQ(&swapped.shard(2)->agent(), clone.policy->agent.get());
  EXPECT_EQ(TotalActiveSessions(swapped), kUsers);
}

TEST(ServeRouter, Float32HotSwapSharesOnePlanAcrossPresentAndFutureShards) {
  ScratchDir dir("router_f32_swap");
  Rng rng_a(131), rng_b(132);
  sadae::Sadae sadae_a(TinySadaeConfig(), rng_a);
  core::ContextAgent agent_a(TinySim2RecConfig(), &sadae_a, rng_a);
  sadae::Sadae sadae_b(TinySadaeConfig(), rng_b);
  core::ContextAgent agent_b(TinySim2RecConfig(), &sadae_b, rng_b);

  ServeRouter router(&agent_a, ServeRouterConfig{}, /*initial_shards=*/2);
  const infer::InferencePlan* old_plan = router.shard(0)->plan();
  ASSERT_NE(old_plan, nullptr);
  ASSERT_EQ(router.shard(1)->plan(), old_plan);  // constructor sharing
  for (int u = 0; u < 8; ++u) router.Act(u, ObsFor(u, 0));

  // A swap needs a pre-frozen plan; without one nothing moves.
  EXPECT_FALSE(router.SwapModel(&agent_b, nullptr));
  EXPECT_EQ(router.shard(0)->plan(), old_plan);

  infer::FreezeResult frozen = infer::InferencePlan::Freeze(agent_b);
  ASSERT_TRUE(frozen.ok());
  std::shared_ptr<const infer::InferencePlan> plan = std::move(frozen.plan);
  ASSERT_TRUE(router.SwapModel(&agent_b, plan));
  EXPECT_EQ(router.shard(0)->plan(), plan.get());
  EXPECT_EQ(router.shard(1)->plan(), plan.get());
  EXPECT_EQ(TotalActiveSessions(router), 8);

  // Autoscaler path: a later AddShard freezes nothing and shares the
  // swapped-in plan.
  ASSERT_TRUE(router.AddShard(2));
  EXPECT_EQ(router.shard(2)->plan(), plan.get());
  for (int u = 0; u < 8; ++u) router.Act(u, ObsFor(u, 1));
  EXPECT_EQ(TotalActiveSessions(router), 8);
}

TEST(ServeRouter, HotSwapDuringReshardDrainKeepsEverySession) {
  ScratchDir dir("router_swap_reshard");
  Rng rng(141);
  sadae::Sadae sadae_model(TinySadaeConfig(), rng);
  core::ContextAgent agent(TinySim2RecConfig(), &sadae_model, rng);
  ASSERT_TRUE(SaveCheckpoint(dir.str(), agent));
  LoadResult clone = LoadCheckpointEx(dir.str());
  ASSERT_TRUE(clone.status == LoadStatus::kOk);

  ServeRouter router(&agent, ServeRouterConfig{}, /*initial_shards=*/2);
  const std::shared_ptr<const infer::InferencePlan> clone_plan =
      FreezePlan(*clone.policy);
  const std::shared_ptr<const infer::InferencePlan> plan =
      router.shard(0)->plan_handle();

  constexpr int kUsers = 16;
  constexpr int kSteps = 20;
  constexpr int kCycles = 10;

  // Swaps and reshards contend for the same exclusive drain lock while
  // clients hold the shared side: the swap must wait out any reshard
  // (and vice versa), and neither may strand or duplicate a session.
  std::vector<std::thread> workers;
  for (int c = 0; c < 2; ++c) {
    workers.emplace_back([&router, c] {
      for (int t = 0; t < kSteps; ++t) {
        for (int i = 0; i < kUsers / 2; ++i) {
          const int u = c * (kUsers / 2) + i;
          router.Act(static_cast<uint64_t>(u), ObsFor(u, t));
        }
      }
    });
  }
  workers.emplace_back([&router] {
    for (int k = 0; k < kCycles; ++k) {
      router.AddShard(2);
      router.RemoveShard(2);
    }
  });
  workers.emplace_back([&] {
    for (int k = 0; k < kCycles; ++k) {
      EXPECT_TRUE(router.SwapModel(clone.policy->agent.get(), clone_plan));
      EXPECT_TRUE(router.SwapModel(&agent, plan));
    }
  });
  for (auto& th : workers) th.join();

  // Accounting: every user's session exists exactly once, on the shard
  // the ring names, with every step it ever took.
  std::map<uint64_t, int> holder;
  std::map<uint64_t, int64_t> steps;
  for (const int id : router.shard_ids()) {
    for (const auto& [user, session] :
         router.shard(id)->sessions().ExportSessions()) {
      ASSERT_EQ(holder.count(user), 0u) << "user " << user << " duplicated";
      holder[user] = id;
      steps[user] = session.steps;
    }
  }
  ASSERT_EQ(holder.size(), static_cast<size_t>(kUsers));
  for (int u = 0; u < kUsers; ++u) {
    const uint64_t user = static_cast<uint64_t>(u);
    EXPECT_EQ(holder[user], router.ShardFor(user));
    EXPECT_EQ(steps[user], kSteps);
  }
}

TEST(CheckpointWatcher, SwapsValidatesAndRollsBackTyped) {
  ScratchDir base("watcher");
  Rng rng_a(151), rng_b(152);
  sadae::Sadae sadae_a(TinySadaeConfig(), rng_a);
  core::ContextAgent agent_a(TinySim2RecConfig(), &sadae_a, rng_a);
  sadae::Sadae sadae_b(TinySadaeConfig(), rng_b);
  core::ContextAgent agent_b(TinySim2RecConfig(), &sadae_b, rng_b);

  ServeRouter router(&agent_a, ServeRouterConfig{}, /*initial_shards=*/2);
  for (int u = 0; u < 8; ++u) router.Act(u, ObsFor(u, 0));

  obs::MetricsRegistry registry;
  CheckpointWatcherConfig config;
  config.dir = base.str();
  config.registry = &registry;
  CheckpointWatcher watcher(&router, config);

  // Empty directory: nothing to do.
  EXPECT_EQ(watcher.PollOnce().outcome, SwapOutcome::kNoCandidate);

  // Generation 1 appears; the watcher validates and swaps to it.
  SaveGeneration(base.path(), agent_a, 1);
  SwapResult result = watcher.PollOnce();
  EXPECT_EQ(result.outcome, SwapOutcome::kSwapped);
  EXPECT_EQ(result.generation, 1u);
  EXPECT_EQ(watcher.generation(), 1u);
  EXPECT_EQ(TotalActiveSessions(router), 8);
  // Idempotent: the served generation is no longer a candidate.
  EXPECT_EQ(watcher.PollOnce().outcome, SwapOutcome::kNoCandidate);

  // A corrupt generation 2 (weight bit flipped) is rejected with a
  // typed status; serving stays on generation 1, and the candidate is
  // never retried.
  {
    const std::string dir = SaveGeneration(base.path(), agent_b, 2);
    const fs::path weights = fs::path(dir) / "agent.bin";
    std::fstream f(weights, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(weights) / 2));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x01);
    f.write(&byte, 1);
  }
  result = watcher.PollOnce();
  EXPECT_EQ(result.outcome, SwapOutcome::kLoadFailed);
  EXPECT_EQ(result.load_status, LoadStatus::kCorrupt);
  EXPECT_EQ(watcher.generation(), 1u);
  EXPECT_EQ(watcher.PollOnce().outcome, SwapOutcome::kNoCandidate);
  router.Act(0, ObsFor(0, 1));  // serving was never disturbed

  // A session-incompatible generation 3 (wider extractor) loads fine
  // but is refused at the swap: resident recurrent state would be
  // shape-invalid.
  {
    core::ContextAgentConfig wide = TinySim2RecConfig();
    wide.lstm_hidden = 16;
    Rng rng_c(153);
    sadae::Sadae sadae_c(TinySadaeConfig(), rng_c);
    core::ContextAgent agent_c(wide, &sadae_c, rng_c);
    SaveGeneration(base.path(), agent_c, 3);
  }
  result = watcher.PollOnce();
  EXPECT_EQ(result.outcome, SwapOutcome::kIncompatible);
  EXPECT_EQ(watcher.generation(), 1u);

  // Generation 4 is valid: the watcher takes it, skipping the rejected
  // 2 and 3 forever. The gauge tracks the served generation.
  SaveGeneration(base.path(), agent_b, 4);
  result = watcher.PollOnce();
  EXPECT_EQ(result.outcome, SwapOutcome::kSwapped);
  EXPECT_EQ(watcher.generation(), 4u);
  EXPECT_EQ(TotalActiveSessions(router), 8);
  if (obs::Enabled()) {
    EXPECT_EQ(registry.GetGauge("serve.checkpoint_generation")->value(), 4.0);
  }

  // A generation 5 in another manifest version (here v2) is refused as
  // kVersionUnsupported, never migrated: generation 4 keeps serving.
  {
    const std::string dir = SaveGeneration(base.path(), agent_a, 5);
    SetManifestVersion(fs::path(dir) / "manifest.txt", 2);
  }
  result = watcher.PollOnce();
  EXPECT_EQ(result.outcome, SwapOutcome::kLoadFailed);
  EXPECT_EQ(result.load_status, LoadStatus::kVersionUnsupported);
  EXPECT_EQ(watcher.generation(), 4u);
  router.Act(1, ObsFor(1, 1));  // serving was never disturbed

  // Re-exporting a *valid* bundle over the rejected gen-000002 does
  // not resurrect it — a rejected (dir, generation) is never retried;
  // the fix is always a fresh, higher generation. And generations below
  // the served one are never candidates at all.
  SaveGeneration(base.path(), agent_a, 2);
  SaveGeneration(base.path(), agent_a, 1);
  EXPECT_EQ(watcher.PollOnce().outcome, SwapOutcome::kNoCandidate);

  const CheckpointWatcher::Stats stats = watcher.stats();
  EXPECT_EQ(stats.swaps, 2);
  EXPECT_EQ(stats.rejects, 3);
  EXPECT_EQ(stats.generation, 4u);
}

TEST(CheckpointWatcher, FreezeFailureRollsBackUnderFloat32) {
  ScratchDir base("watcher_f32");
  Rng rng_a(161), rng_b(162);
  sadae::Sadae sadae_a(TinySadaeConfig(), rng_a);
  core::ContextAgent agent_a(TinySim2RecConfig(), &sadae_a, rng_a);
  sadae::Sadae sadae_b(TinySadaeConfig(), rng_b);
  core::ContextAgent agent_b(TinySim2RecConfig(), &sadae_b, rng_b);

  ServeRouter router(&agent_a, ServeRouterConfig{}, /*initial_shards=*/1);
  const infer::InferencePlan* old_plan = router.shard(0)->plan();
  for (int u = 0; u < 4; ++u) router.Act(u, ObsFor(u, 0));

  CheckpointWatcherConfig config;
  config.dir = base.str();
  CheckpointWatcher watcher(&router, config);

  // Generation 1 carries a non-finite parameter: it loads (the bytes
  // are intact) but InferencePlan::Freeze refuses it, so the watcher
  // rolls back and the old plan keeps serving.
  {
    const std::vector<double> original = agent_b.FlatParams();
    std::vector<double> poisoned(original.size(),
                                 std::numeric_limits<double>::quiet_NaN());
    agent_b.SetFlatParams(poisoned);
    SaveGeneration(base.path(), agent_b, 1);
    agent_b.SetFlatParams(original);
  }
  const SwapResult failed = watcher.PollOnce();
  EXPECT_EQ(failed.outcome, SwapOutcome::kFreezeFailed);
  EXPECT_EQ(watcher.generation(), 0u);
  EXPECT_EQ(router.shard(0)->plan(), old_plan);
  router.Act(0, ObsFor(0, 1));  // still serving on the old plan

  // A finite generation 2 freezes and swaps; the shard's plan pointer
  // proves the hand-off happened.
  SaveGeneration(base.path(), agent_b, 2);
  EXPECT_EQ(watcher.PollOnce().outcome, SwapOutcome::kSwapped);
  EXPECT_NE(router.shard(0)->plan(), old_plan);
  EXPECT_EQ(TotalActiveSessions(router), 4);
}

TEST(CheckpointWatcher, BackgroundThreadSwapsUnderLiveTraffic) {
  ScratchDir base("watcher_bg");
  Rng rng(171);
  sadae::Sadae sadae_model(TinySadaeConfig(), rng);
  core::ContextAgent agent(TinySim2RecConfig(), &sadae_model, rng);

  ServeRouter router(&agent, ServeRouterConfig{}, /*initial_shards=*/2);

  CheckpointWatcherConfig watcher_config;
  watcher_config.dir = base.str();
  watcher_config.poll_interval_ms = 5;
  CheckpointWatcher watcher(&router, watcher_config);
  watcher.Start();
  watcher.Start();  // idempotent

  constexpr int kUsers = 8;
  constexpr int kSteps = 40;
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&router, c] {
      for (int t = 0; t < kSteps; ++t) {
        for (int i = 0; i < kUsers / 2; ++i) {
          const int u = c * (kUsers / 2) + i;
          router.Act(static_cast<uint64_t>(u), ObsFor(u, t));
        }
      }
    });
  }
  // Publish generations while traffic flows; the background poller
  // picks them up without dropping a session.
  SaveGeneration(base.path(), agent, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  SaveGeneration(base.path(), agent, 2);
  for (auto& th : clients) th.join();

  // Wait (bounded) for the poller to reach generation 2, then stop.
  for (int i = 0; i < 200 && watcher.generation() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  watcher.Stop();
  EXPECT_EQ(watcher.generation(), 2u);
  EXPECT_EQ(TotalActiveSessions(router), kUsers);
  EXPECT_EQ(watcher.stats().swaps, 2);
}

// ---------------------------------------------------------------------------
// Serve-side trajectory logging (PR 10 tentpole): lock-free rings,
// CRC-framed segments, and the replay path back into the data layer.
// ---------------------------------------------------------------------------

TrajectoryLogConfig TinyLogConfig(const std::string& dir) {
  TrajectoryLogConfig config;
  config.dir = dir;
  config.obs_dim = 3;
  config.action_dim = 2;
  config.ring_capacity = 8;
  config.segment_max_records = 4;
  return config;
}

TEST(TrajectoryLog, RingIsBoundedAndDropsInsteadOfBlocking) {
  ScratchDir dir("tlog_ring");
  TrajectoryLog log(TinyLogConfig(dir.str()));
  TrajectorySink* sink = log.OpenSink(0);
  EXPECT_EQ(log.OpenSink(0), sink);  // stable pointer per shard

  const double obs[3] = {1.0, 2.0, 3.0};
  const double action[2] = {0.5, -0.5};
  // Capacity 8: the 9th append before any flush is dropped, counted,
  // and the serving path never blocks.
  for (int i = 0; i < 10; ++i) {
    sink->Append(7, static_cast<uint32_t>(i), 0.1 * i, obs, action);
  }
  EXPECT_EQ(sink->dropped(), 2);
  ASSERT_TRUE(log.Flush());
  // Drained: the ring has room again.
  sink->Append(7, 8, 0.8, obs, action);
  EXPECT_EQ(sink->dropped(), 2);

  ASSERT_TRUE(log.CloseSegment());
  const TrajectoryLog::Stats stats = log.stats();
  EXPECT_EQ(stats.appended, 9);  // 8 + 1 post-flush (drops not counted)
  EXPECT_EQ(stats.dropped, 2);
  EXPECT_EQ(stats.flushed, 9);
  EXPECT_EQ(stats.segments, 3);  // 4 + 4 + 1 at segment_max_records=4
}

TEST(TrajectoryLog, SegmentRoundTripIsBitwiseAndCorruptionIsTyped) {
  ScratchDir dir("tlog_segment");
  TrajectoryLog log(TinyLogConfig(dir.str()));
  TrajectorySink* sink = log.OpenSink(3);

  // Values a text format would mangle: the segment codec must carry
  // raw IEEE-754 bits.
  const double obs[3] = {1.0 / 3.0, -0.0, 5e-324};
  const double action[2] = {0.1, 1e300};
  sink->Append(42, 0, 2.0 / 7.0, obs, action);
  sink->Append(42, 1, -1.5, obs, action);
  ASSERT_TRUE(log.CloseSegment());

  const std::string path = dir.str() + "/seg-000000.s2tl";
  TrajectorySegment segment;
  ASSERT_EQ(ReadTrajectorySegment(path, &segment), SegmentStatus::kOk);
  EXPECT_EQ(segment.obs_dim, 3);
  EXPECT_EQ(segment.action_dim, 2);
  ASSERT_EQ(segment.records.size(), 2u);
  const TrajectoryRecord& record = segment.records[0];
  EXPECT_EQ(record.user_id, 42u);
  EXPECT_EQ(record.step, 0u);
  EXPECT_EQ(record.shard_id, 3u);
  const double expected_reward = 2.0 / 7.0;
  EXPECT_EQ(std::memcmp(&record.reward, &expected_reward, sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(record.obs.data(), obs, sizeof(obs)), 0);
  EXPECT_EQ(std::memcmp(record.action.data(), action, sizeof(action)), 0);
  EXPECT_EQ(segment.records[1].step, 1u);

  // Status matrix, mirroring checkpoint load semantics.
  EXPECT_EQ(ReadTrajectorySegment(dir.str() + "/absent.s2tl", &segment),
            SegmentStatus::kNotFound);

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const auto write_variant = [&](const std::string& variant) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(variant.data(),
              static_cast<std::streamsize>(variant.size()));
  };

  // Truncation anywhere is corruption, never a partial read.
  write_variant(bytes.substr(0, bytes.size() - 3));
  EXPECT_EQ(ReadTrajectorySegment(path, &segment), SegmentStatus::kCorrupt);

  // A flipped payload bit trips the frame CRC.
  {
    std::string flipped = bytes;
    flipped[flipped.size() - 1] =
        static_cast<char>(flipped[flipped.size() - 1] ^ 0x01);
    write_variant(flipped);
  }
  EXPECT_EQ(ReadTrajectorySegment(path, &segment), SegmentStatus::kCorrupt);

  // A future segment version is intact-but-unreadable, not corrupt.
  {
    std::string future = bytes;
    future[4] = 9;  // version byte follows the u32 magic
    write_variant(future);
  }
  EXPECT_EQ(ReadTrajectorySegment(path, &segment),
            SegmentStatus::kVersionUnsupported);

  // Bad magic.
  {
    std::string garbage = bytes;
    garbage[0] = 'X';
    write_variant(garbage);
  }
  EXPECT_EQ(ReadTrajectorySegment(path, &segment), SegmentStatus::kCorrupt);
}

TEST(TrajectoryLog, ReplayReconstructsSessionsIntoDataset) {
  ScratchDir dir("tlog_replay");
  TrajectoryLogConfig config = TinyLogConfig(dir.str());
  config.segment_max_records = 3;  // force session streams across segments
  TrajectoryLog log(config);
  TrajectorySink* shard0 = log.OpenSink(0);
  TrajectorySink* shard1 = log.OpenSink(1);

  const auto obs_at = [](int v) {
    return std::array<double, 3>{1.0 * v, 2.0 * v, 3.0 * v};
  };
  const auto action_at = [](int v) {
    return std::array<double, 2>{0.5 * v, -0.5 * v};
  };
  // User 7 on shard 0: a 3-step session, then a 2-step session (the
  // step-0 record is the session boundary). User 9 on shard 1: one
  // 1-step session.
  int stamp = 1;
  for (const uint32_t step : {0u, 1u, 2u, 0u, 1u}) {
    const auto obs = obs_at(stamp);
    const auto action = action_at(stamp);
    shard0->Append(7, step, 0.25 * stamp, obs.data(), action.data());
    ++stamp;
  }
  {
    const auto obs = obs_at(100);
    const auto action = action_at(100);
    shard1->Append(9, 0, -3.5, obs.data(), action.data());
  }
  ASSERT_TRUE(log.CloseSegment());
  EXPECT_GE(log.stats().segments, 2);

  data::LoggedDataset dataset(3, 2);
  std::string error;
  ASSERT_TRUE(ReplayTrajectoryLogs(dir.str(), &dataset, &error)) << error;
  ASSERT_EQ(dataset.size(), 3);

  // User 7's first session: steps 1..3 of the stamp sequence.
  const data::UserTrajectory& first = dataset.trajectory(0);
  EXPECT_EQ(first.user_id, 7);
  EXPECT_EQ(first.group_id, 0);  // serving shard id
  ASSERT_EQ(first.actions.rows(), 3);
  ASSERT_EQ(first.observations.rows(), 4);  // T+1 with duplicated s_T
  for (int t = 0; t < 3; ++t) {
    const auto obs = obs_at(1 + t);
    const auto action = action_at(1 + t);
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(first.observations(t, d), obs[static_cast<size_t>(d)]);
    }
    for (int d = 0; d < 2; ++d) {
      EXPECT_EQ(first.actions(t, d), action[static_cast<size_t>(d)]);
    }
    EXPECT_EQ(first.feedback[t], 0.25 * (1 + t));
    EXPECT_EQ(first.rewards[t], 0.25 * (1 + t));
  }
  // Terminal observation duplicated from the last served one.
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(first.observations(3, d), first.observations(2, d));
  }

  const data::UserTrajectory& second = dataset.trajectory(1);
  EXPECT_EQ(second.user_id, 7);
  EXPECT_EQ(second.actions.rows(), 2);
  const data::UserTrajectory& third = dataset.trajectory(2);
  EXPECT_EQ(third.user_id, 9);
  EXPECT_EQ(third.group_id, 1);
  EXPECT_EQ(third.actions.rows(), 1);

  // Dimension mismatch is refused with an error, dataset untouched.
  data::LoggedDataset wrong(4, 2);
  EXPECT_FALSE(ReplayTrajectoryLogs(dir.str(), &wrong, &error));
  EXPECT_NE(error.find("dimension mismatch"), std::string::npos);
}

TEST(InferenceServer, TrajectoryLoggingIsDeterminismNeutralBitwise) {
  ScratchDir dir("tlog_neutral");
  Rng rng(181);
  sadae::Sadae sadae_model(TinySadaeConfig(), rng);
  core::ContextAgent agent(TinySim2RecConfig(), &sadae_model, rng);

  TrajectoryLogConfig log_config;
  log_config.dir = dir.str();
  log_config.obs_dim = envs::kLtsObsDim;
  log_config.action_dim = 1;
  TrajectoryLog log(log_config);

  InferenceServerConfig plain_config;
  plain_config.max_batch_size = 4;
  InferenceServerConfig logged_config = plain_config;
  logged_config.trajectory_sink = log.OpenSink(0);
  InferenceServer plain(&agent, plain_config);
  InferenceServer logged(&agent, logged_config);

  constexpr int kUsers = 4;
  constexpr int kSteps = 6;
  std::vector<std::vector<ServeReply>> plain_replies(kUsers);
  std::vector<std::vector<ServeReply>> logged_replies(kUsers);
  for (auto [server, replies] :
       {std::pair(&plain, &plain_replies), std::pair(&logged, &logged_replies)}) {
    std::vector<std::thread> clients;
    for (int u = 0; u < kUsers; ++u) {
      clients.emplace_back([server, replies, u] {
        for (int t = 0; t < kSteps; ++t) {
          (*replies)[u].push_back(server->Act(u, ObsFor(u, t)));
        }
      });
    }
    for (auto& th : clients) th.join();
  }

  // Logging on vs off: bitwise-identical replies, whatever batch
  // compositions the two runs happened to produce.
  for (int u = 0; u < kUsers; ++u) {
    for (int t = 0; t < kSteps; ++t) {
      EXPECT_TRUE(BitwiseEqual(plain_replies[u][t].action,
                               logged_replies[u][t].action))
          << "user=" << u << " step=" << t;
      EXPECT_EQ(plain_replies[u][t].value, logged_replies[u][t].value);
    }
  }

  // And the log captured every served request faithfully: the logged
  // action is the reply's, the reward slot is the critic value, the
  // step index is the serving step.
  ASSERT_TRUE(log.CloseSegment());
  data::LoggedDataset dataset(envs::kLtsObsDim, 1);
  std::string error;
  ASSERT_TRUE(ReplayTrajectoryLogs(dir.str(), &dataset, &error)) << error;
  ASSERT_EQ(dataset.size(), kUsers);
  int64_t logged_steps = 0;
  for (int i = 0; i < dataset.size(); ++i) {
    const data::UserTrajectory& trajectory = dataset.trajectory(i);
    const int user = trajectory.user_id;
    ASSERT_EQ(trajectory.actions.rows(), kSteps);
    for (int t = 0; t < kSteps; ++t) {
      EXPECT_EQ(trajectory.actions(t, 0),
                logged_replies[user][t].action(0, 0));
      EXPECT_EQ(trajectory.feedback[t], logged_replies[user][t].value);
      for (int d = 0; d < envs::kLtsObsDim; ++d) {
        EXPECT_EQ(trajectory.observations(t, d), ObsFor(user, t)(0, d));
      }
    }
    logged_steps += trajectory.actions.rows();
  }
  EXPECT_EQ(logged_steps, kUsers * kSteps);
  EXPECT_EQ(log.stats().dropped, 0);
}

TEST(ServeRouter, TrajectoryLogCoversEveryShardIncludingAddedOnes) {
  ScratchDir dir("tlog_router");
  Rng rng(191);
  sadae::Sadae sadae_model(TinySadaeConfig(), rng);
  core::ContextAgent agent(TinySim2RecConfig(), &sadae_model, rng);

  TrajectoryLogConfig log_config;
  log_config.dir = dir.str();
  log_config.obs_dim = envs::kLtsObsDim;
  log_config.action_dim = 1;
  TrajectoryLog log(log_config);

  ServeRouterConfig config;
  config.trajectory_log = &log;
  ServeRouter router(&agent, config, /*initial_shards=*/2);

  constexpr int kUsers = 12;
  for (int u = 0; u < kUsers; ++u) router.Act(u, ObsFor(u, 0));
  ASSERT_TRUE(router.AddShard(2));  // autoscaler path: sink auto-opened
  for (int u = 0; u < kUsers; ++u) router.Act(u, ObsFor(u, 1));
  ASSERT_TRUE(log.CloseSegment());

  data::LoggedDataset dataset(envs::kLtsObsDim, 1);
  std::string error;
  ASSERT_TRUE(ReplayTrajectoryLogs(dir.str(), &dataset, &error)) << error;
  // Every request of every user was logged, from whatever shard served
  // it — including shard 2, which only existed for the second round.
  int64_t total_steps = 0;
  std::set<int> shards_seen;
  for (int i = 0; i < dataset.size(); ++i) {
    total_steps += dataset.trajectory(i).actions.rows();
    shards_seen.insert(dataset.trajectory(i).group_id);
  }
  EXPECT_EQ(total_steps, 2 * kUsers);
  EXPECT_GT(shards_seen.size(), 1u);
}

}  // namespace
}  // namespace serve
}  // namespace sim2rec
