#include "experiments/dpr_pipeline.h"

#include <algorithm>
#include <map>

#include "data/behavior_policy.h"
#include "experiments/checkpoint_export.h"
#include "experiments/iteration_export.h"
#include "sadae/sadae_trainer.h"
#include "serve/checkpoint.h"
#include "util/logging.h"

namespace sim2rec {
namespace experiments {
namespace {

/// Ensures no group was completely emptied by F_trend: groups with
/// fewer than `min_per_group` survivors fall back to all their
/// trajectories.
data::LoggedDataset RepairGroups(const data::LoggedDataset& original,
                                 const data::LoggedDataset& filtered,
                                 int min_per_group) {
  data::LoggedDataset out = filtered;
  for (int g : original.GroupIds()) {
    if (static_cast<int>(filtered.GroupMembers(g).size()) >=
        min_per_group) {
      continue;
    }
    S2R_LOG_WARN("F_trend nearly emptied group %d; restoring it", g);
    for (int idx : original.GroupMembers(g)) {
      bool already = false;
      for (int kept : filtered.GroupMembers(g)) {
        if (filtered.trajectory(kept).user_id ==
            original.trajectory(idx).user_id) {
          already = true;
          break;
        }
      }
      if (!already) out.Add(original.trajectory(idx));
    }
  }
  return out;
}

}  // namespace

DprPipeline BuildDprPipeline(const DprPipelineConfig& config) {
  DprPipeline pipeline;
  pipeline.config = config;
  Rng rng(config.seed);

  pipeline.world = std::make_unique<envs::DprWorld>(config.world);
  pipeline.dataset =
      data::GenerateDprDataset(*pipeline.world, config.sessions_per_city,
                               rng);
  pipeline.dataset.SplitUsers(config.train_fraction, rng,
                              &pipeline.train_data, &pipeline.test_data);

  Rng ensemble_rng = rng.Split(1);
  pipeline.ensemble = sim::SimulatorEnsemble::Build(
      pipeline.train_data, config.ensemble_size, config.sim_train,
      ensemble_rng);
  if (config.parallel_ensemble) {
    pipeline.ensemble.set_thread_pool(&core::ThreadPool::Global());
  }
  S2R_CHECK(config.train_simulators >= 1 &&
            config.train_simulators < config.ensemble_size);
  for (int i = 0; i < config.ensemble_size; ++i) {
    if (i < config.train_simulators) {
      pipeline.train_sim_indices.push_back(i);
    } else {
      pipeline.heldout_sim_indices.push_back(i);
    }
  }

  if (config.apply_trend_filter) {
    const std::vector<int> keep =
        sim::TrendFilter(pipeline.ensemble, pipeline.train_data,
                         config.trend_deltas, /*bonus_action_index=*/1);
    const data::LoggedDataset filtered =
        sim::SelectTrajectories(pipeline.train_data, keep);
    pipeline.filtered_train =
        RepairGroups(pipeline.train_data, filtered, /*min_per_group=*/3);
    S2R_LOG_INFO("F_trend kept %d / %d trajectories",
                 pipeline.filtered_train.size(),
                 pipeline.train_data.size());
  } else {
    pipeline.filtered_train = pipeline.train_data;
  }

  pipeline.sadae_sets = pipeline.filtered_train.AllGroupStepSets();
  return pipeline;
}

DprTrainedPolicy TrainDprPolicy(const DprPipeline& pipeline,
                                const DprTrainOptions& options) {
  Rng rng(options.seed ^ 0xd5f3u);
  const bool use_sadae =
      options.variant == baselines::AgentVariant::kSim2Rec;

  // --- Training data choice (F_trend is an EE guard). ---
  const data::LoggedDataset& train_data =
      options.extrapolation_error_guards ? pipeline.filtered_train
                                         : pipeline.train_data;

  // --- Simulator-backed training environments, one per group. ---
  std::vector<std::unique_ptr<sim::SimGroupEnv>> owned_envs;
  std::vector<envs::GroupBatchEnv*> training_envs;
  for (int g : train_data.GroupIds()) {
    sim::SimEnvConfig env_config = pipeline.config.sim_env;
    env_config.cost_factor = pipeline.world->city(g).cost_factor;
    if (!options.prediction_error_guards) {
      // Sim2Rec-PE: no uncertainty penalty, no truncated random-start
      // rollouts — full-horizon rollouts from session starts.
      env_config.uncertainty_alpha = 0.0;
      env_config.random_start_states = false;
      env_config.truncated_horizon = pipeline.config.world.horizon;
    }
    if (!options.extrapolation_error_guards) {
      env_config.use_exec_filter = false;  // Sim2Rec-EE
    }
    owned_envs.push_back(std::make_unique<sim::SimGroupEnv>(
        &train_data, g, &pipeline.ensemble, env_config));
    training_envs.push_back(owned_envs.back().get());
  }

  // --- Agent (+ SADAE). ---
  core::ContextAgentConfig agent_config = baselines::MakeAgentConfig(
      options.variant, envs::kDprObsDim, envs::kDprActionDim);
  agent_config.lstm_hidden = options.lstm_hidden;
  agent_config.f_hidden = options.f_hidden;
  agent_config.f_out = options.f_out;
  agent_config.policy_hidden = options.policy_hidden;
  agent_config.value_hidden = options.value_hidden;
  agent_config.init_log_std = -2.0;
  // Center the initial policy on the logged behaviour policy's mean
  // action so early rollouts live inside the executable action boxes.
  {
    nn::Tensor inputs, targets;
    train_data.FlattenForSimulator(&inputs, &targets);
    agent_config.action_bias.assign(envs::kDprActionDim, 0.0);
    for (int c = 0; c < envs::kDprActionDim; ++c) {
      double mean = 0.0;
      for (int r = 0; r < inputs.rows(); ++r)
        mean += inputs(r, envs::kDprObsDim + c);
      agent_config.action_bias[c] = mean / inputs.rows();
    }
  }

  DprTrainedPolicy trained;
  std::unique_ptr<sadae::SadaeTrainer> sadae_trainer;
  if (use_sadae) {
    sadae::SadaeConfig sadae_config;
    sadae_config.state_dim = envs::kDprContinuousObsDim;
    sadae_config.categorical_dim = envs::kDprTierCount;
    sadae_config.action_dim = envs::kDprActionDim;
    sadae_config.latent_dim = options.sadae_latent;
    sadae_config.encoder_hidden = options.sadae_hidden;
    sadae_config.decoder_hidden = options.sadae_hidden;
    Rng sadae_rng = rng.Split(3);
    trained.sadae_model =
        std::make_unique<sadae::Sadae>(sadae_config, sadae_rng);
    sadae::SadaeTrainConfig sadae_train;
    sadae_train.learning_rate = 1e-3;
    sadae_trainer = std::make_unique<sadae::SadaeTrainer>(
        trained.sadae_model.get(), sadae_train);
    for (int epoch = 0; epoch < options.sadae_pretrain_epochs; ++epoch) {
      sadae_trainer->TrainEpoch(pipeline.sadae_sets, sadae_rng);
    }
  }

  Rng agent_rng = rng.Split(4);
  trained.agent = std::make_unique<core::ContextAgent>(
      agent_config, trained.sadae_model.get(), agent_rng);

  // --- Loop: draw omega per iteration (Algorithm 1 line 4). ---
  core::TrainLoopConfig loop;
  loop.iterations = options.iterations;
  loop.eval_every = options.eval_every;
  loop.ppo = options.ppo;
  // The paper anneals the learning rate (1e-4 -> 1e-6, Table II).
  loop.final_learning_rate = options.ppo.learning_rate * 0.05;
  loop.sadae_steps_per_iteration = use_sadae ? 1 : 0;
  loop.checkpoint_every = options.checkpoint_every;
  loop.seed = rng.NextU64();

  core::ZeroShotTrainer trainer(
      &*trained.agent, training_envs, loop, sadae_trainer.get(),
      use_sadae ? &pipeline.sadae_sets : nullptr);

  std::vector<int> sim_choices = pipeline.train_sim_indices;
  if (options.variant == baselines::AgentVariant::kDirect) {
    sim_choices = {pipeline.train_sim_indices[0]};
  }
  trainer.set_on_env_selected(
      [sim_choices](envs::GroupBatchEnv* env, Rng& env_rng) {
        auto* sim_env = static_cast<sim::SimGroupEnv*>(env);
        sim_env->set_active_simulator(sim_choices[env_rng.UniformInt(
            static_cast<int>(sim_choices.size()))]);
      });

  if (options.eval_every > 0 && !pipeline.heldout_sim_indices.empty()) {
    const int eval_sim = pipeline.heldout_sim_indices[0];
    const DprPipeline* pipeline_ptr = &pipeline;
    trainer.set_evaluator(
        [pipeline_ptr, eval_sim](rl::Agent& agent, Rng& eval_rng) {
          return EvaluateAgentOnSimulator(*pipeline_ptr,
                                          pipeline_ptr->test_data,
                                          eval_sim, agent, eval_rng,
                                          /*episodes_per_group=*/1);
        });
  }

  core::CompositeObserver observers;
  if (!options.export_checkpoint_dir.empty()) {
    serve::CheckpointMetadata metadata;
    metadata.variant = baselines::AgentVariantName(options.variant);
    metadata.seed = options.seed;
    observers.AddOwned(std::make_unique<CheckpointExportObserver>(
        options.export_checkpoint_dir, trained.agent.get(), metadata));
  }
  if (!options.export_metrics_path.empty()) {
    observers.AddOwned(
        std::make_unique<IterationLogExporter>(options.export_metrics_path));
  }
  if (!observers.empty()) trainer.set_observer(&observers);

  trained.logs = trainer.Train();
  return trained;
}

std::unique_ptr<sim::SimGroupEnv> MakeEvalSimEnv(
    const DprPipeline& pipeline, const data::LoggedDataset& data,
    int group_id, int simulator_index, int rollout_users) {
  sim::SimEnvConfig config;
  const int members =
      static_cast<int>(data.GroupMembers(group_id).size());
  config.rollout_users =
      rollout_users > 0 ? rollout_users : std::min(members, 32);
  config.truncated_horizon = pipeline.config.world.horizon;
  config.uncertainty_alpha = 0.0;
  config.random_start_states = false;
  config.use_exec_filter = false;
  config.cost_factor = pipeline.world->city(group_id).cost_factor;
  auto env = std::make_unique<sim::SimGroupEnv>(&data, group_id,
                                                &pipeline.ensemble,
                                                config);
  env->set_active_simulator(simulator_index);
  return env;
}

OrdersAndCost EvaluateOrdersAndCost(
    const DprPipeline& pipeline, const data::LoggedDataset& data,
    int simulator_index,
    const std::function<nn::Tensor(const nn::Tensor&)>& policy_fn,
    Rng& rng, int episodes_per_group) {
  OrdersAndCost totals;
  int64_t steps = 0;
  data::DprBehaviorPolicy behavior;
  for (int g : data.GroupIds()) {
    auto env = MakeEvalSimEnv(pipeline, data, g, simulator_index);
    for (int episode = 0; episode < episodes_per_group; ++episode) {
      nn::Tensor obs = env->Reset(rng);
      for (int t = 0; t < env->horizon(); ++t) {
        const nn::Tensor actions =
            policy_fn ? policy_fn(obs) : behavior.Act(obs, rng);
        const envs::StepResult step = env->Step(actions, rng);
        for (int i = 0; i < env->num_users(); ++i) {
          totals.orders_per_step += env->last_orders()[i];
          totals.cost_per_step += env->last_costs()[i];
          totals.reward_per_step += step.rewards[i];
          ++steps;
        }
        obs = step.next_obs;
        if (step.horizon_reached) break;
      }
    }
  }
  S2R_CHECK(steps > 0);
  totals.orders_per_step /= steps;
  totals.cost_per_step /= steps;
  totals.reward_per_step /= steps;
  return totals;
}

double EvaluateAgentOnSimulator(const DprPipeline& pipeline,
                                const data::LoggedDataset& data,
                                int simulator_index, rl::Agent& agent,
                                Rng& rng, int episodes_per_group) {
  double total = 0.0;
  int groups = 0;
  for (int g : data.GroupIds()) {
    auto env = MakeEvalSimEnv(pipeline, data, g, simulator_index);
    total += rl::EvaluateAgentReturn(*env, agent, episodes_per_group,
                                     rng, /*deterministic=*/true);
    ++groups;
  }
  const double horizon = pipeline.config.world.horizon;
  return total / groups / (envs::kDprOrderScale * horizon);
}

double EvaluatePolicyFnOnSimulator(
    const DprPipeline& pipeline, const data::LoggedDataset& data,
    int simulator_index,
    const std::function<nn::Tensor(const nn::Tensor&)>& policy_fn,
    Rng& rng, int episodes_per_group) {
  double total = 0.0;
  int groups = 0;
  for (int g : data.GroupIds()) {
    auto env = MakeEvalSimEnv(pipeline, data, g, simulator_index);
    for (int episode = 0; episode < episodes_per_group; ++episode) {
      total += envs::EvaluateEpisodeReturn(*env, policy_fn, rng) /
               episodes_per_group;
    }
    ++groups;
  }
  const double horizon = pipeline.config.world.horizon;
  return total / groups / (envs::kDprOrderScale * horizon);
}

}  // namespace experiments
}  // namespace sim2rec
