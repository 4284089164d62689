// The work-stealing ThreadPool and what still runs on it in training:
// the SimulatorEnsemble's per-member fan-out, alone and inside a tiny
// DPR training run, must be bit-identical to the serial computation.
// These tests carry the `tsan` ctest label: run them under
// -DSIM2REC_SANITIZE=thread to certify race freedom.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "data/generation.h"
#include "experiments/dpr_pipeline.h"
#include "obs/metrics.h"
#include "sim/ensemble.h"

namespace sim2rec {
namespace {

// ---------------------------------------------------------------------
// ThreadPool.

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  core::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> counts(1000);
  for (auto& c : counts) c.store(0);
  pool.ParallelFor(1000, [&](int i) { counts[i].fetch_add(1); });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ThreadPool, SizeOneRunsInline) {
  core::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::vector<int> hit(17, 0);
  pool.ParallelFor(17, [&](int i) { hit[i] += 1; });
  for (int v : hit) EXPECT_EQ(v, 1);
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  core::ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(64, [&](int i) { total.fetch_add(i); });
  }
  EXPECT_EQ(total.load(), 50L * 64 * 63 / 2);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  core::ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(8 * 8);
  for (auto& c : counts) c.store(0);
  pool.ParallelFor(8, [&](int outer) {
    pool.ParallelFor(8, [&](int inner) {
      counts[outer * 8 + inner].fetch_add(1);
    });
  });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  core::ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [](int i) {
                         if (i == 37) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // Pool must stay usable after an exceptional batch.
  std::atomic<int> ran{0};
  pool.ParallelFor(10, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, DefaultThreadsHonorsEnvVar) {
  const char* saved = std::getenv("SIM2REC_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  setenv("SIM2REC_THREADS", "3", 1);
  EXPECT_EQ(core::ThreadPool::DefaultThreads(), 3);
  if (saved != nullptr) {
    setenv("SIM2REC_THREADS", saved_value.c_str(), 1);
  } else {
    unsetenv("SIM2REC_THREADS");
  }
  EXPECT_GE(core::ThreadPool::DefaultThreads(), 1);
}

// ---------------------------------------------------------------------
// Ensemble uncertainty: parallel per-member prediction must match the
// serial computation exactly.

TEST(SimulatorEnsemble, ParallelUncertaintyMatchesSerial) {
  envs::DprConfig world_config;
  world_config.num_cities = 2;
  world_config.drivers_per_city = 6;
  world_config.horizon = 6;
  envs::DprWorld world(world_config);
  Rng data_rng(5);
  const data::LoggedDataset dataset =
      data::GenerateDprDataset(world, /*sessions_per_city=*/1, data_rng);

  sim::SimulatorTrainConfig train_config;
  train_config.hidden_dims = {16, 16};
  train_config.epochs = 3;
  train_config.batch_size = 32;
  Rng ensemble_rng(9);
  sim::SimulatorEnsemble ensemble = sim::SimulatorEnsemble::Build(
      dataset, /*count=*/3, train_config, ensemble_rng);

  nn::Tensor inputs, targets;
  dataset.FlattenForSimulator(&inputs, &targets);

  ASSERT_EQ(ensemble.thread_pool(), nullptr);
  const std::vector<double> serial = ensemble.Uncertainty(inputs);

  core::ThreadPool pool(4);
  ensemble.set_thread_pool(&pool);
  const std::vector<double> parallel = ensemble.Uncertainty(inputs);

  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]);  // bitwise
  }
  double max_u = 0.0;
  for (double u : serial) max_u = std::max(max_u, u);
  EXPECT_GT(max_u, 0.0);  // members genuinely disagree somewhere
}

// ---------------------------------------------------------------------
// Training: the one pool a training run still uses is the ensemble
// fan-out inside the DPR env steps (U(s, a) over the members). A tiny
// DPR run must log the same bits and end on the same weights with or
// without it.

struct DprRunBits {
  std::vector<double> logs;
  std::vector<double> agent_params;
  std::vector<double> sadae_params;
};

DprRunBits TrainTinyDpr(const experiments::DprPipeline& pipeline) {
  experiments::DprTrainOptions options;
  options.iterations = 3;
  options.eval_every = 0;
  options.lstm_hidden = 8;
  options.f_hidden = {8};
  options.f_out = 4;
  options.policy_hidden = {16};
  options.value_hidden = {16};
  options.sadae_latent = 4;
  options.sadae_hidden = {16};
  options.sadae_pretrain_epochs = 1;
  options.seed = 5;
  experiments::DprTrainedPolicy trained =
      experiments::TrainDprPolicy(pipeline, options);
  DprRunBits bits;
  for (const core::IterationLog& log : trained.logs) {
    bits.logs.insert(bits.logs.end(),
                     {static_cast<double>(log.iteration), log.train_return,
                      log.eval_return, log.policy_loss, log.value_loss,
                      log.entropy, log.approx_kl, log.sadae_loss});
  }
  bits.agent_params = trained.agent->FlatParams();
  bits.sadae_params = trained.sadae_model->FlatParams();
  return bits;
}

bool BitwiseEqual(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

TEST(ThreadPool, DprTrainingWithEnsemblePoolMatchesSerial) {
  experiments::DprPipelineConfig config;
  config.world.num_cities = 2;
  config.world.drivers_per_city = 8;
  config.world.horizon = 6;
  config.sessions_per_city = 1;
  config.ensemble_size = 3;
  config.train_simulators = 2;
  config.sim_train.epochs = 8;
  config.sim_train.hidden_dims = {24, 24};
  config.sim_env.rollout_users = 6;
  config.sim_env.truncated_horizon = 3;
  config.parallel_ensemble = false;
  config.seed = 77;
  experiments::DprPipeline pipeline = experiments::BuildDprPipeline(config);
  ASSERT_EQ(pipeline.ensemble.thread_pool(), nullptr);
  const DprRunBits serial = TrainTinyDpr(pipeline);

  core::ThreadPool pool(4);
  pipeline.ensemble.set_thread_pool(&pool);
  const obs::Counter* pool_batches =
      obs::MetricsRegistry::Global().GetCounter("core.pool.batches");
  const int64_t batches_before = pool_batches->value();
  const DprRunBits pooled = TrainTinyDpr(pipeline);
  const int64_t batches_run = pool_batches->value() - batches_before;
  pipeline.ensemble.set_thread_pool(nullptr);

  // The env steps really fanned out (the counter records only when
  // observability is on).
  if (obs::Enabled()) {
    EXPECT_GT(batches_run, 0);
  }
  ASSERT_EQ(serial.logs.size(), 3u * 8u);
  EXPECT_TRUE(BitwiseEqual(serial.logs, pooled.logs));
  EXPECT_TRUE(BitwiseEqual(serial.agent_params, pooled.agent_params));
  EXPECT_TRUE(BitwiseEqual(serial.sadae_params, pooled.sadae_params));
}

}  // namespace
}  // namespace sim2rec
