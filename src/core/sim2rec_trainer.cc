#include "core/sim2rec_trainer.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace sim2rec {
namespace core {

ZeroShotTrainer::ZeroShotTrainer(
    rl::Agent* agent, std::vector<envs::GroupBatchEnv*> training_envs,
    const TrainLoopConfig& config, sadae::SadaeTrainer* sadae_trainer,
    const std::vector<nn::Tensor>* sadae_sets)
    : agent_(agent), training_envs_(std::move(training_envs)),
      config_(config), sadae_trainer_(sadae_trainer),
      sadae_sets_(sadae_sets) {
  S2R_CHECK(agent != nullptr);
  S2R_CHECK(!training_envs_.empty());
  ppo_ = std::make_unique<rl::PpoTrainer>(agent, config.ppo);
}

std::vector<IterationLog> ZeroShotTrainer::Train() {
  Rng rng(config_.seed);
  std::vector<IterationLog> logs;
  logs.reserve(config_.iterations);

  const double lr0 = config_.ppo.learning_rate;
  for (int iter = 0; iter < config_.iterations; ++iter) {
    S2R_TRACE_SPAN("train/iteration");
    if (config_.final_learning_rate >= 0.0 && config_.iterations > 1) {
      const double frac =
          static_cast<double>(iter) / (config_.iterations - 1);
      ppo_->set_learning_rate(
          lr0 + frac * (config_.final_learning_rate - lr0));
    }

    // Algorithm 1 lines 4-5: draw the simulator and the group.
    envs::GroupBatchEnv* env = training_envs_[rng.UniformInt(
        static_cast<int>(training_envs_.size()))];
    if (on_env_selected_) on_env_selected_(env, rng);

    // Lines 6-9: truncated rollout (the env applies the uncertainty
    // penalty and F_exec internally).
    rl::Rollout rollout =
        rl::CollectRollout(*env, *agent_, config_.rollout_steps, rng);

    // Line 10, Eq. 4: PPO update of policy, extractor, f, kappa.
    rl::PpoTrainer::UpdateStats stats;
    if (rollout.num_steps > 0) stats = ppo_->Update(&rollout);

    IterationLog log;
    log.iteration = iter;
    log.train_return = stats.mean_return;
    log.policy_loss = stats.policy_loss;
    log.value_loss = stats.value_loss;
    log.entropy = stats.entropy;
    log.approx_kl = stats.approx_kl;

    // Line 10, Eq. 8: SADAE ELBO update of kappa, theta.
    if (sadae_trainer_ != nullptr && sadae_sets_ != nullptr &&
        !sadae_sets_->empty() && config_.sadae_steps_per_iteration > 0) {
      double sadae_loss = 0.0;
      for (int s = 0; s < config_.sadae_steps_per_iteration; ++s) {
        std::vector<int> batch;
        for (int k = 0; k < config_.sadae_sets_per_step; ++k) {
          batch.push_back(rng.UniformInt(
              static_cast<int>(sadae_sets_->size())));
        }
        sadae_loss += sadae_trainer_->TrainStep(*sadae_sets_, batch, rng);
      }
      log.sadae_loss = sadae_loss / config_.sadae_steps_per_iteration;
    }

    if (evaluator_ && config_.eval_every > 0 &&
        (iter % config_.eval_every == 0 ||
         iter == config_.iterations - 1)) {
      log.eval_return = evaluator_(*agent_, rng);
      S2R_LOG_INFO(
          "iter %d: train_return=%.3f eval_return=%.3f kl=%.4f", iter,
          log.train_return, log.eval_return, log.approx_kl);
    }
    if (observer_ != nullptr &&
        ((config_.checkpoint_every > 0 &&
          (iter + 1) % config_.checkpoint_every == 0) ||
         iter == config_.iterations - 1)) {
      observer_->OnCheckpoint(iter);
    }
    S2R_COUNT("train.iterations", 1);
    S2R_GAUGE_SET("train.return", log.train_return);
    if (log.has_eval()) S2R_GAUGE_SET("train.eval_return", log.eval_return);
    if (observer_ != nullptr) observer_->OnIteration(log);
    logs.push_back(log);
  }
  return logs;
}

}  // namespace core
}  // namespace sim2rec
