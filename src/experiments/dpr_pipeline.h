#ifndef SIM2REC_EXPERIMENTS_DPR_PIPELINE_H_
#define SIM2REC_EXPERIMENTS_DPR_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/factories.h"
#include "core/sim2rec_trainer.h"
#include "data/generation.h"
#include "sim/sim_env.h"

namespace sim2rec {
namespace experiments {

/// Configuration of the full DPR offline pipeline (Sec. V-C), scaled
/// down from the paper (15 simulators, 120000-sample batches) to CPU
/// scale (defaults below).
struct DprPipelineConfig {
  envs::DprConfig world;  // 5 cities x 40 drivers, horizon 14 by default
  int sessions_per_city = 3;
  double train_fraction = 0.8;

  /// Size of the simulator ensemble Omega' and how many of its members
  /// are used for training; the remainder are the held-out deployment
  /// simulators (SimA, SimB, SimC in the paper).
  int ensemble_size = 8;
  int train_simulators = 5;
  sim::SimulatorTrainConfig sim_train = [] {
    sim::SimulatorTrainConfig config;
    config.epochs = 30;
    return config;
  }();

  /// Simulator-environment settings (T_c = 5 as in the paper).
  sim::SimEnvConfig sim_env = [] {
    sim::SimEnvConfig config;
    config.uncertainty_alpha = 0.3;
    config.rollout_users = 48;
    return config;
  }();

  /// F_trend intervention grid over the bonus action.
  std::vector<double> trend_deltas = {-0.2, -0.1, 0.0, 0.1, 0.2};
  bool apply_trend_filter = true;

  /// Attach the global thread pool (sized by SIM2REC_THREADS) to the
  /// ensemble so per-member predictions for U(s, a) fan out in
  /// parallel. Bit-identical to serial in either case.
  bool parallel_ensemble = true;

  uint64_t seed = 123;
};

/// Everything the DPR experiments operate on. Building it runs:
/// world synthesis -> behaviour-policy logging -> user split ->
/// ensemble training (H over subsets/seeds) -> F_trend filtering ->
/// SADAE set extraction.
struct DprPipeline {
  DprPipelineConfig config;
  std::unique_ptr<envs::DprWorld> world;
  data::LoggedDataset dataset{0, 0};
  data::LoggedDataset train_data{0, 0};
  data::LoggedDataset test_data{0, 0};
  sim::SimulatorEnsemble ensemble;
  std::vector<int> train_sim_indices;
  std::vector<int> heldout_sim_indices;
  /// Training data after F_trend (equals train_data when the filter is
  /// disabled).
  data::LoggedDataset filtered_train{0, 0};
  std::vector<nn::Tensor> sadae_sets;  // from the (filtered) train data
};

DprPipeline BuildDprPipeline(const DprPipelineConfig& config);

/// Ablation / variant switches for policy training on the pipeline
/// (Tab. III): Sim2Rec-PE drops the prediction-error guards
/// (uncertainty penalty + random truncated starts); Sim2Rec-EE drops the
/// extrapolation-error guards (F_trend + F_exec).
struct DprTrainOptions {
  baselines::AgentVariant variant = baselines::AgentVariant::kSim2Rec;
  bool prediction_error_guards = true;   // false => Sim2Rec-PE
  bool extrapolation_error_guards = true;  // false => Sim2Rec-EE
  int iterations = 150;
  int eval_every = 15;
  rl::PpoConfig ppo = [] {
    rl::PpoConfig config;
    config.gamma = 0.9;          // paper Table II (DPR column)
    config.reward_scale = 0.1;   // raw order-unit rewards -> O(1)
    config.learning_rate = 1e-3;
    config.epochs = 6;
    return config;
  }();
  // Agent sizes (scaled from Table II DPR column).
  int lstm_hidden = 32;
  std::vector<int> f_hidden = {32};
  int f_out = 8;
  std::vector<int> policy_hidden = {64, 64};
  std::vector<int> value_hidden = {64, 64};
  int sadae_latent = 8;
  std::vector<int> sadae_hidden = {64, 64};
  int sadae_pretrain_epochs = 15;
  /// When non-empty, export the trained agent as a serving bundle
  /// (serve::SaveCheckpoint) into this directory after the final
  /// iteration — and every `checkpoint_every` iterations when > 0.
  std::string export_checkpoint_dir;
  int checkpoint_every = 0;
  /// When non-empty, per-iteration training metrics are streamed to
  /// `<export_metrics_path>.jsonl` and `.csv` as they are produced
  /// (flushed per row — a killed run keeps its partial history).
  std::string export_metrics_path;
  uint64_t seed = 0;
};

/// A trained DPR policy with everything needed to evaluate it.
struct DprTrainedPolicy {
  std::unique_ptr<sadae::Sadae> sadae_model;
  std::unique_ptr<core::ContextAgent> agent;
  std::vector<core::IterationLog> logs;
};

/// Trains a variant on the pipeline's training simulators/groups and
/// returns the trained agent. The evaluator (when eval_every > 0) probes
/// the first held-out simulator.
DprTrainedPolicy TrainDprPolicy(const DprPipeline& pipeline,
                                const DprTrainOptions& options);

/// Builds an evaluation environment on a specific ensemble member: full
/// logged horizon, session starts, no uncertainty penalty, no F_exec —
/// a plain "deploy in simulator omega" environment.
std::unique_ptr<sim::SimGroupEnv> MakeEvalSimEnv(
    const DprPipeline& pipeline, const data::LoggedDataset& data,
    int group_id, int simulator_index, int rollout_users = 0);

/// Mean per-driver-step orders and cost of a policy rolled out in an
/// ensemble member across every group of `data` (Tab. III quantities).
struct OrdersAndCost {
  double orders_per_step = 0.0;
  double cost_per_step = 0.0;
  double reward_per_step = 0.0;
};
/// `policy_fn(obs) -> actions`; pass {} to use the logged behaviour
/// policy pi_e.
OrdersAndCost EvaluateOrdersAndCost(
    const DprPipeline& pipeline, const data::LoggedDataset& data,
    int simulator_index,
    const std::function<nn::Tensor(const nn::Tensor&)>& policy_fn,
    Rng& rng, int episodes_per_group = 2);

/// Expected cumulative reward per driver of an agent deployed in an
/// ensemble member, averaged over groups (Tab. IV metric, normalized by
/// kDprOrderScale * horizon for readability).
double EvaluateAgentOnSimulator(const DprPipeline& pipeline,
                                const data::LoggedDataset& data,
                                int simulator_index, rl::Agent& agent,
                                Rng& rng, int episodes_per_group = 2);

/// Same metric for a stateless policy function.
double EvaluatePolicyFnOnSimulator(
    const DprPipeline& pipeline, const data::LoggedDataset& data,
    int simulator_index,
    const std::function<nn::Tensor(const nn::Tensor&)>& policy_fn,
    Rng& rng, int episodes_per_group = 2);

}  // namespace experiments
}  // namespace sim2rec

#endif  // SIM2REC_EXPERIMENTS_DPR_PIPELINE_H_
