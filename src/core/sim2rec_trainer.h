#ifndef SIM2REC_CORE_SIM2REC_TRAINER_H_
#define SIM2REC_CORE_SIM2REC_TRAINER_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/context_agent.h"
#include "core/training_observer.h"
#include "rl/ppo.h"
#include "sadae/sadae_trainer.h"

namespace sim2rec {
namespace core {

/// Training-loop configuration (Algorithm 1).
struct TrainLoopConfig {
  int iterations = 150;
  /// Rollout length per iteration; for simulator-backed envs this equals
  /// the truncated horizon T_c.
  int rollout_steps = 1 << 30;  // clipped to the env horizon
  rl::PpoConfig ppo;

  /// Joint SADAE ELBO updates per iteration (Algorithm 1 line 10,
  /// "update kappa via Eq. 8"); 0 disables.
  int sadae_steps_per_iteration = 1;
  int sadae_sets_per_step = 4;

  /// Evaluate every `eval_every` iterations (0 disables).
  int eval_every = 10;
  int eval_episodes = 2;

  /// Fire the observer's OnCheckpoint (see set_observer) every this
  /// many iterations in addition to the final one; 0 = final only.
  int checkpoint_every = 0;

  /// Linear learning-rate decay to `final_learning_rate` over the run
  /// (the paper anneals 1e-4 -> 1e-6). Negative disables decay.
  double final_learning_rate = -1.0;

  uint64_t seed = 0;
};

// IterationLog lives in core/training_observer.h (included above) next
// to the observer interface that consumes it.

/// The Sim2Rec training loop (paper Algorithm 1), generic over the
/// simulator set:
///
///   for each iteration:
///     sample an environment from the simulator set (omega ~ p(Omega'),
///       group g ~ p(g) — both encoded as entries of `training_envs`,
///       with `on_env_selected` re-drawing omega for swappable envs);
///     collect a truncated rollout (tau ~ p(tau | pi, phi, P_{M,tau^r}));
///     PPO update of pi, phi, f, and kappa through Eq. 4;
///     SADAE ELBO update of kappa, theta through Eq. 8;
///     periodically evaluate on the held-out target environment.
///
/// The uncertainty penalty, F_trend and F_exec live inside the
/// simulator-backed environments / dataset preparation, so the loop is
/// identical for the LTS and DPR experiments.
class ZeroShotTrainer {
 public:
  /// `agent` and every env must outlive the trainer. `sadae_trainer` and
  /// `sadae_sets` may be null/empty (baselines without SADAE).
  ZeroShotTrainer(rl::Agent* agent,
                  std::vector<envs::GroupBatchEnv*> training_envs,
                  const TrainLoopConfig& config,
                  sadae::SadaeTrainer* sadae_trainer = nullptr,
                  const std::vector<nn::Tensor>* sadae_sets = nullptr);

  /// Hook invoked after an environment is drawn for an iteration; used
  /// by the DPR experiments to re-draw the active simulator omega.
  void set_on_env_selected(
      std::function<void(envs::GroupBatchEnv*, Rng&)> hook) {
    on_env_selected_ = std::move(hook);
  }

  /// Deployment-performance probe on the target environment(s).
  void set_evaluator(std::function<double(rl::Agent&, Rng&)> evaluator) {
    evaluator_ = std::move(evaluator);
  }

  /// Installs the training observer: OnIteration fires with each log
  /// entry right after it is recorded; OnCheckpoint fires with the
  /// 0-based iteration every `checkpoint_every` iterations and always
  /// after the last one. The trainer stays agnostic of what observers
  /// do (metrics streaming, serve::SaveCheckpoint export, ...); compose
  /// several with core::CompositeObserver. The observer must outlive
  /// Train(); pass nullptr to clear.
  void set_observer(TrainingObserver* observer) { observer_ = observer; }

  /// Runs the loop; returns one log entry per iteration.
  std::vector<IterationLog> Train();

  rl::PpoTrainer& ppo() { return *ppo_; }

 private:
  rl::Agent* agent_;
  std::vector<envs::GroupBatchEnv*> training_envs_;
  TrainLoopConfig config_;
  sadae::SadaeTrainer* sadae_trainer_;
  const std::vector<nn::Tensor>* sadae_sets_;
  std::unique_ptr<rl::PpoTrainer> ppo_;
  std::function<void(envs::GroupBatchEnv*, Rng&)> on_env_selected_;
  std::function<double(rl::Agent&, Rng&)> evaluator_;
  TrainingObserver* observer_ = nullptr;
};

}  // namespace core
}  // namespace sim2rec

#endif  // SIM2REC_CORE_SIM2REC_TRAINER_H_
