#ifndef SIM2REC_EXPERIMENTS_LTS_EXPERIMENT_H_
#define SIM2REC_EXPERIMENTS_LTS_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/factories.h"
#include "core/sim2rec_trainer.h"
#include "envs/lts_env.h"

namespace sim2rec {
namespace experiments {

/// Scaled-down counterpart of the paper's LTS experiment settings
/// (Table II: horizon 140, batch 30000, 750 users — reduced to single-
/// core scale while preserving the task structure).
struct LtsExperimentConfig {
  int num_users = 48;
  int horizon = 40;
  int iterations = 120;
  int eval_every = 10;
  int eval_episodes = 2;

  /// Per-user gap range (LTS3-beta tasks); 0 for LTS1-LTS3.
  double omega_u_range = 0.0;
  /// The "unlimited-user" simulator setting of Fig. 7b: user parameters
  /// are re-drawn every episode.
  bool resample_users = false;

  // Agent sizes (scaled from Table II).
  int lstm_hidden = 16;
  std::vector<int> f_hidden = {16};
  int f_out = 6;
  std::vector<int> policy_hidden = {32, 32};
  std::vector<int> value_hidden = {32, 32};

  // SADAE (scaled from Table II: latent 5).
  int sadae_latent = 4;
  std::vector<int> sadae_hidden = {32, 32};
  int sadae_pretrain_epochs = 30;

  rl::PpoConfig ppo;

  /// When non-empty, the trained agent is exported as a serving bundle
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

/// One training run's deployed-performance trace.
struct LtsRunResult {
  std::vector<int> eval_iterations;
  std::vector<double> eval_returns;  // on the target environment omega*=0
  double final_return = 0.0;
};

/// Collects SADAE training sets (per-step observation batches) from a
/// list of LTS environments under a uniformly random policy.
std::vector<nn::Tensor> CollectLtsStateSets(
    const std::vector<double>& omegas, const LtsExperimentConfig& config,
    Rng& rng);

/// Trains one variant against the simulator set {LtsEnv(omega_g)} and
/// periodically evaluates zero-shot on the target environment
/// omega* = 0. For DIRECT a single simulator (first omega) is used; for
/// the upper bound the target environment itself is the training set.
LtsRunResult RunLtsVariant(baselines::AgentVariant variant,
                           const std::vector<double>& train_omegas,
                           const LtsExperimentConfig& config);

}  // namespace experiments
}  // namespace sim2rec

#endif  // SIM2REC_EXPERIMENTS_LTS_EXPERIMENT_H_
