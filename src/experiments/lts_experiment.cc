#include "experiments/lts_experiment.h"

#include <algorithm>

#include "data/behavior_policy.h"
#include "experiments/checkpoint_export.h"
#include "experiments/iteration_export.h"
#include "sadae/sadae_trainer.h"
#include "serve/checkpoint.h"
#include "util/logging.h"

namespace sim2rec {
namespace experiments {
namespace {

envs::LtsConfig MakeEnvConfig(double omega_g,
                              const LtsExperimentConfig& config,
                              uint64_t user_seed) {
  envs::LtsConfig env_config;
  env_config.num_users = config.num_users;
  env_config.horizon = config.horizon;
  env_config.omega_g = omega_g;
  env_config.omega_u_range = config.omega_u_range;
  env_config.resample_users_on_reset = config.resample_users;
  env_config.user_seed = user_seed;
  return env_config;
}

}  // namespace

std::vector<nn::Tensor> CollectLtsStateSets(
    const std::vector<double>& omegas, const LtsExperimentConfig& config,
    Rng& rng) {
  std::vector<nn::Tensor> sets;
  for (double omega : omegas) {
    envs::LtsEnv env(MakeEnvConfig(omega, config, rng.NextU64()));
    nn::Tensor obs = env.Reset(rng);
    sets.push_back(obs);
    for (int t = 0; t < config.horizon; ++t) {
      const nn::Tensor actions =
          data::RandomLtsActions(env.num_users(), rng);
      const envs::StepResult step = env.Step(actions, rng);
      sets.push_back(step.next_obs);
      if (step.horizon_reached) break;
    }
  }
  return sets;
}

LtsRunResult RunLtsVariant(baselines::AgentVariant variant,
                           const std::vector<double>& train_omegas,
                           const LtsExperimentConfig& config) {
  S2R_CHECK(!train_omegas.empty());
  Rng rng(config.seed);

  // --- Training environment set (the "simulator set"). ---
  std::vector<std::unique_ptr<envs::LtsEnv>> owned_envs;
  std::vector<envs::GroupBatchEnv*> training_envs;
  const bool is_direct = variant == baselines::AgentVariant::kDirect;
  const bool is_upper = variant == baselines::AgentVariant::kUpperBound;
  std::vector<double> omegas = train_omegas;
  if (is_direct) {
    // DIRECT trusts one simulator; draw one from the set.
    omegas = {train_omegas[rng.UniformInt(
        static_cast<int>(train_omegas.size()))]};
  } else if (is_upper) {
    omegas = {0.0};  // the target environment itself
  }
  for (double omega : omegas) {
    owned_envs.push_back(std::make_unique<envs::LtsEnv>(
        MakeEnvConfig(omega, config, rng.NextU64())));
    training_envs.push_back(owned_envs.back().get());
  }

  // --- Target (deployment) environment: omega* = 0. ---
  envs::LtsEnv target_env(MakeEnvConfig(0.0, config, rng.NextU64()));

  // --- Agent (+ SADAE for Sim2Rec). ---
  core::ContextAgentConfig agent_config = baselines::MakeAgentConfig(
      variant, envs::kLtsObsDim, /*action_dim=*/1);
  agent_config.lstm_hidden = config.lstm_hidden;
  agent_config.f_hidden = config.f_hidden;
  agent_config.f_out = config.f_out;
  agent_config.policy_hidden = config.policy_hidden;
  agent_config.value_hidden = config.value_hidden;
  agent_config.action_bias = {0.5};  // center of the [0, 1] action box

  std::unique_ptr<sadae::Sadae> sadae_model;
  std::unique_ptr<sadae::SadaeTrainer> sadae_trainer;
  std::vector<nn::Tensor> sadae_sets;
  if (variant == baselines::AgentVariant::kSim2Rec) {
    sadae::SadaeConfig sadae_config;
    sadae_config.state_dim = envs::kLtsObsDim;  // state-only (Sec. V-B2)
    sadae_config.latent_dim = config.sadae_latent;
    sadae_config.encoder_hidden = config.sadae_hidden;
    sadae_config.decoder_hidden = config.sadae_hidden;
    Rng sadae_rng = rng.Split(1);
    sadae_model = std::make_unique<sadae::Sadae>(sadae_config, sadae_rng);

    sadae_sets = CollectLtsStateSets(omegas, config, sadae_rng);
    sadae::SadaeTrainConfig sadae_train;
    sadae_train.learning_rate = 2e-3;
    sadae_trainer = std::make_unique<sadae::SadaeTrainer>(
        sadae_model.get(), sadae_train);
    for (int epoch = 0; epoch < config.sadae_pretrain_epochs; ++epoch) {
      sadae_trainer->TrainEpoch(sadae_sets, sadae_rng);
    }
  }

  Rng agent_rng = rng.Split(2);
  core::ContextAgent agent(agent_config, sadae_model.get(), agent_rng);

  // --- Training loop. ---
  core::TrainLoopConfig loop;
  loop.iterations = config.iterations;
  loop.eval_every = config.eval_every;
  loop.eval_episodes = config.eval_episodes;
  loop.ppo = config.ppo;
  loop.sadae_steps_per_iteration = sadae_model != nullptr ? 1 : 0;
  loop.checkpoint_every = config.checkpoint_every;
  loop.seed = rng.NextU64();

  core::ZeroShotTrainer trainer(&agent, training_envs, loop,
                                sadae_trainer.get(),
                                sadae_model != nullptr ? &sadae_sets
                                                       : nullptr);
  core::CompositeObserver observers;
  if (!config.export_checkpoint_dir.empty()) {
    serve::CheckpointMetadata metadata;
    metadata.variant = baselines::AgentVariantName(variant);
    metadata.seed = config.seed;
    observers.AddOwned(std::make_unique<CheckpointExportObserver>(
        config.export_checkpoint_dir, &agent, metadata));
  }
  if (!config.export_metrics_path.empty()) {
    observers.AddOwned(
        std::make_unique<IterationLogExporter>(config.export_metrics_path));
  }
  if (!observers.empty()) trainer.set_observer(&observers);

  const int eval_episodes = config.eval_episodes;
  trainer.set_evaluator(
      [&target_env, eval_episodes](rl::Agent& eval_agent, Rng& eval_rng) {
        return rl::EvaluateAgentReturn(target_env, eval_agent,
                                       eval_episodes, eval_rng,
                                       /*deterministic=*/true);
      });

  const std::vector<core::IterationLog> logs = trainer.Train();

  LtsRunResult result;
  for (const auto& log : logs) {
    if (log.has_eval()) {
      result.eval_iterations.push_back(log.iteration);
      result.eval_returns.push_back(log.eval_return);
    }
  }
  S2R_CHECK(!result.eval_returns.empty());
  result.final_return = result.eval_returns.back();
  return result;
}

}  // namespace experiments
}  // namespace sim2rec
