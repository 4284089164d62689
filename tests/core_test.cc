#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "baselines/factories.h"
#include "core/context_agent.h"
#include "core/sim2rec_trainer.h"
#include "envs/lts_env.h"
#include "util/simd.h"

namespace sim2rec {
namespace core {
namespace {

ContextAgentConfig Sim2RecLtsConfig() {
  ContextAgentConfig config;
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

sadae::SadaeConfig LtsSadaeConfig() {
  sadae::SadaeConfig config;
  config.state_dim = envs::kLtsObsDim;
  config.latent_dim = 3;
  config.encoder_hidden = {16};
  config.decoder_hidden = {16};
  return config;
}

TEST(ContextAgent, Sim2RecVariantStepsAndTrains) {
  Rng rng(1);
  sadae::Sadae sadae_model(LtsSadaeConfig(), rng);
  ContextAgent agent(Sim2RecLtsConfig(), &sadae_model, rng);

  envs::LtsConfig env_config;
  env_config.num_users = 6;
  env_config.horizon = 5;
  envs::LtsEnv env(env_config);
  Rng env_rng(2);

  rl::Rollout rollout = rl::CollectRollout(env, agent, 10, env_rng);
  EXPECT_EQ(rollout.num_steps, 5);
  // Group embedding is produced during stepping.
  EXPECT_EQ(agent.last_group_embedding().cols(), 3);

  rl::PpoConfig ppo_config;
  rl::PpoTrainer trainer(&agent, ppo_config);
  const auto stats = trainer.Update(&rollout);
  EXPECT_TRUE(std::isfinite(stats.policy_loss));
}

TEST(ContextAgent, SadaeParametersReceivePpoGradient) {
  Rng rng(3);
  sadae::Sadae sadae_model(LtsSadaeConfig(), rng);
  ContextAgent agent(Sim2RecLtsConfig(), &sadae_model, rng);

  envs::LtsConfig env_config;
  env_config.num_users = 4;
  env_config.horizon = 4;
  envs::LtsEnv env(env_config);
  Rng env_rng(4);
  rl::Rollout rollout = rl::CollectRollout(env, agent, 10, env_rng);
  rl::ComputeGae(&rollout, 0.99, 0.95);

  nn::Tape tape;
  const rl::Agent::SequenceForward forward =
      agent.ForwardRollout(tape, rollout);
  sadae_model.ZeroGrad();
  agent.ZeroGrad();
  tape.Backward(nn::MeanV(forward.log_probs));
  // The encoder must be in the gradient path (Eq. 4 updates kappa).
  double encoder_grad = 0.0;
  for (const nn::Parameter* p : sadae_model.Parameters()) {
    if (p->name.find("enc") != std::string::npos)
      encoder_grad += p->grad.Norm();
  }
  EXPECT_GT(encoder_grad, 0.0);
}

TEST(ContextAgent, StepAndForwardConsistentWithSadae) {
  // Normalization off => the two paths must agree exactly, SADAE
  // included.
  ContextAgentConfig config = Sim2RecLtsConfig();
  config.normalize_observations = false;
  Rng rng(5);
  sadae::Sadae sadae_model(LtsSadaeConfig(), rng);
  ContextAgent agent(config, &sadae_model, rng);

  envs::LtsConfig env_config;
  env_config.num_users = 5;
  env_config.horizon = 4;
  envs::LtsEnv env(env_config);
  Rng env_rng(6);
  rl::Rollout rollout = rl::CollectRollout(env, agent, 10, env_rng);

  nn::Tape tape;
  const rl::Agent::SequenceForward forward =
      agent.ForwardRollout(tape, rollout);
  const nn::Tensor& lp = forward.log_probs.value();
  for (int t = 0; t < rollout.num_steps; ++t) {
    for (int i = 0; i < rollout.num_users; ++i) {
      EXPECT_NEAR(lp(t * rollout.num_users + i, 0),
                  rollout.log_probs[t][i], 1e-8);
    }
  }
}

TEST(ContextAgent, DeterministicStepIsMode) {
  ContextAgentConfig config = Sim2RecLtsConfig();
  config.use_extractor = false;
  Rng rng(7);
  ContextAgent agent(config, nullptr, rng);
  agent.BeginEpisode(3);
  nn::Tensor obs = nn::Tensor::Zeros(3, envs::kLtsObsDim);
  Rng step_rng1(8), step_rng2(9);
  const auto out1 = agent.Step(obs, step_rng1, true);
  agent.BeginEpisode(3);
  const auto out2 = agent.Step(obs, step_rng2, true);
  EXPECT_TRUE(AllClose(out1.actions, out2.actions, 1e-12));
}

TEST(ContextAgent, RejectsMismatchedSadaeLayout) {
  Rng rng(10);
  sadae::SadaeConfig bad = LtsSadaeConfig();
  bad.state_dim = envs::kLtsObsDim + 3;  // neither obs nor obs+action
  sadae::Sadae sadae_model(bad, rng);
  EXPECT_DEATH(ContextAgent(Sim2RecLtsConfig(), &sadae_model, rng),
               "SADAE input layout");
}

TEST(Factories, VariantConfigsMatchArchitectures) {
  using baselines::AgentVariant;
  const auto sim2rec =
      baselines::MakeAgentConfig(AgentVariant::kSim2Rec, 4, 1);
  EXPECT_TRUE(sim2rec.use_extractor);
  const auto dr_osi =
      baselines::MakeAgentConfig(AgentVariant::kDrOsi, 4, 1);
  EXPECT_TRUE(dr_osi.use_extractor);
  const auto dr_uni =
      baselines::MakeAgentConfig(AgentVariant::kDrUni, 4, 1);
  EXPECT_FALSE(dr_uni.use_extractor);
  EXPECT_STREQ(baselines::AgentVariantName(AgentVariant::kDirect),
               "DIRECT");
}

TEST(ZeroShotTrainer, RunsAndLogs) {
  Rng rng(11);
  ContextAgentConfig config = Sim2RecLtsConfig();
  config.use_extractor = false;
  ContextAgent agent(config, nullptr, rng);

  envs::LtsConfig env_config;
  env_config.num_users = 6;
  env_config.horizon = 5;
  envs::LtsEnv env_a(env_config);
  env_config.omega_g = 3.0;
  envs::LtsEnv env_b(env_config);

  TrainLoopConfig loop;
  loop.iterations = 5;
  loop.eval_every = 2;
  loop.sadae_steps_per_iteration = 0;
  loop.seed = 12;

  ZeroShotTrainer trainer(&agent, {&env_a, &env_b}, loop);
  int eval_calls = 0;
  trainer.set_evaluator([&eval_calls](rl::Agent&, Rng&) {
    ++eval_calls;
    return 1.0;
  });
  int selected = 0;
  trainer.set_on_env_selected(
      [&selected](envs::GroupBatchEnv*, Rng&) { ++selected; });

  const auto logs = trainer.Train();
  EXPECT_EQ(logs.size(), 5u);
  EXPECT_EQ(selected, 5);
  EXPECT_GT(eval_calls, 0);
  EXPECT_TRUE(logs[0].has_eval());
  EXPECT_FALSE(logs[1].has_eval());
  EXPECT_TRUE(logs[4].has_eval());
}

TEST(ZeroShotTrainer, LearningRateDecays) {
  Rng rng(13);
  ContextAgentConfig config = Sim2RecLtsConfig();
  config.use_extractor = false;
  ContextAgent agent(config, nullptr, rng);
  envs::LtsConfig env_config;
  env_config.num_users = 4;
  env_config.horizon = 3;
  envs::LtsEnv env(env_config);

  TrainLoopConfig loop;
  loop.iterations = 3;
  loop.eval_every = 0;
  loop.ppo.learning_rate = 1e-3;
  loop.final_learning_rate = 1e-5;
  ZeroShotTrainer trainer(&agent, {&env}, loop);
  trainer.Train();
  EXPECT_NEAR(trainer.ppo().learning_rate(), 1e-5, 1e-12);
}

TEST(ZeroShotTrainer, JointSadaeUpdateRuns) {
  Rng rng(14);
  sadae::Sadae sadae_model(LtsSadaeConfig(), rng);
  ContextAgent agent(Sim2RecLtsConfig(), &sadae_model, rng);

  envs::LtsConfig env_config;
  env_config.num_users = 6;
  env_config.horizon = 4;
  envs::LtsEnv env(env_config);

  // Build a few SADAE sets from random env states.
  std::vector<nn::Tensor> sets;
  Rng set_rng(15);
  for (int k = 0; k < 4; ++k) {
    sets.push_back(env.Reset(set_rng));
  }
  sadae::SadaeTrainConfig sadae_config;
  sadae::SadaeTrainer sadae_trainer(&sadae_model, sadae_config);

  TrainLoopConfig loop;
  loop.iterations = 3;
  loop.eval_every = 0;
  loop.sadae_steps_per_iteration = 1;
  ZeroShotTrainer trainer(&agent, {&env}, loop, &sadae_trainer, &sets);
  const auto logs = trainer.Train();
  EXPECT_FALSE(std::isnan(logs[0].sadae_loss));
}

// ---------------------------------------------------------------------------
// SIMD dispatch: a short Sim2Rec run (PPO with SADAE, both extractor
// cells) logs the same bits and ends on the same parameter bytes under
// forced scalar and forced AVX2 GEMMs. This pins the tape's forward,
// backward and Adam steps, not only the kernels.
// ---------------------------------------------------------------------------

struct TrainedBits {
  std::vector<double> logs;  // every IterationLog field, in order
  std::vector<double> agent_params;
  std::vector<double> sadae_params;
};

TrainedBits TrainShortRun(ContextAgentConfig::ExtractorCell cell) {
  Rng rng(21);
  sadae::Sadae sadae_model(LtsSadaeConfig(), rng);
  ContextAgentConfig config = Sim2RecLtsConfig();
  config.extractor_cell = cell;
  ContextAgent agent(config, &sadae_model, rng);

  envs::LtsConfig env_config;
  env_config.num_users = 6;
  env_config.horizon = 5;
  envs::LtsEnv env_a(env_config);
  env_config.omega_g = 3.0;
  envs::LtsEnv env_b(env_config);
  std::vector<nn::Tensor> sets;
  Rng set_rng(22);
  for (int k = 0; k < 4; ++k) sets.push_back(env_a.Reset(set_rng));
  sadae::SadaeTrainer sadae_trainer(&sadae_model, sadae::SadaeTrainConfig());

  TrainLoopConfig loop;
  loop.iterations = 4;
  loop.eval_every = 2;
  loop.sadae_steps_per_iteration = 2;
  loop.seed = 23;
  ZeroShotTrainer trainer(&agent, {&env_a, &env_b}, loop, &sadae_trainer,
                          &sets);
  trainer.set_evaluator([&env_b](rl::Agent& policy, Rng& eval_rng) {
    return rl::CollectRollout(env_b, policy, 5, eval_rng).MeanReturn();
  });

  TrainedBits bits;
  for (const IterationLog& log : trainer.Train()) {
    bits.logs.insert(bits.logs.end(),
                     {static_cast<double>(log.iteration), log.train_return,
                      log.eval_return, log.policy_loss, log.value_loss,
                      log.entropy, log.approx_kl, log.sadae_loss});
  }
  bits.agent_params = agent.FlatParams();
  bits.sadae_params = sadae_model.FlatParams();
  return bits;
}

bool BitwiseEqual(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

TEST(ZeroShotTrainer, ScalarAndAvx2GemmsTrainBitwiseEqual) {
  if (!Avx2Available()) {
    GTEST_SKIP() << "AVX2 kernels not compiled in or CPU unsupported";
  }
  for (auto cell : {ContextAgentConfig::ExtractorCell::kLstm,
                    ContextAgentConfig::ExtractorCell::kGru}) {
    SCOPED_TRACE(cell == ContextAgentConfig::ExtractorCell::kLstm ? "lstm"
                                                                   : "gru");
    ForceSimdLevel(SimdLevel::kScalar);
    const TrainedBits scalar = TrainShortRun(cell);
    ForceSimdLevel(SimdLevel::kAvx2);
    const TrainedBits avx2 = TrainShortRun(cell);
    ResetSimdLevel();
    ASSERT_EQ(scalar.logs.size(), 4u * 8u);
    EXPECT_TRUE(BitwiseEqual(scalar.logs, avx2.logs));
    EXPECT_TRUE(BitwiseEqual(scalar.agent_params, avx2.agent_params));
    EXPECT_TRUE(BitwiseEqual(scalar.sadae_params, avx2.sadae_params));
  }
}

}  // namespace
}  // namespace core
}  // namespace sim2rec
