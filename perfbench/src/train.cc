// Training workloads: Sim2Rec trained by core::ZeroShotTrainer on the
// LTS3 simulator set (train-lts) and on the learned DPR simulator
// ensemble (train-dpr). Set-up and training are the library's own
// calls; the benchmark only wraps the agent and the environments in
// forwarding decorators that count transitions and, in traced runs,
// record spans around each call.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/factories.h"
#include "bench.h"
#include "core/context_agent.h"
#include "core/sim2rec_trainer.h"
#include "data/generation.h"
#include "envs/lts_env.h"
#include "experiments/dpr_pipeline.h"
#include "experiments/lts_experiment.h"
#include "rl/rollout.h"
#include "sadae/sadae_trainer.h"
#include "sim/ensemble.h"
#include "sim/filters.h"
#include "sim/sim_env.h"

namespace perfbench {
namespace {

using sim2rec::Rng;
namespace core = sim2rec::core;
namespace envs = sim2rec::envs;
namespace experiments = sim2rec::experiments;
namespace nn = sim2rec::nn;
namespace rl = sim2rec::rl;
namespace sadae = sim2rec::sadae;
namespace sim = sim2rec::sim;
namespace baselines = sim2rec::baselines;

// Workload sizes. Every other setting is the library default; the
// rollout engine settings (parallelism, rollout_shards) are left at the
// core::TrainLoopConfig defaults rather than copied from the experiment
// configs, so the benchmark keeps compiling when those options go.
//
// An untraced run trains kRepeats times in turn, each time from a fresh
// set-up, so every iteration is timed kRepeats times, seconds apart and
// on different CPUs; the repeats do bitwise the same work. A DPR repeat
// builds the simulator pipeline afresh only every kDprPipelineEvery-th
// time and otherwise reuses the last one, which training only reads;
// every repeat sets up its own SADAE, agent and environments.
constexpr int kRepeats = 6;
constexpr int kDprPipelineEvery = 2;
// Training iterations per repeat: a fixed count per --seconds (so a
// seed's final return is exact), sized so that set-ups and loops
// together take about --seconds on a quiet 4-core host.
constexpr int kLtsIterationsPerSecond = 5;
constexpr int kDprIterationsPerSecond = 3;
constexpr int kMinIterations = 10;
constexpr int kLtsUsers = 32;
constexpr int kLtsHorizon = 30;
constexpr int kLtsSadaePretrainEpochs = 5;
constexpr int kDprSimulatorEpochs = 2;
constexpr int kDprSadaePretrainEpochs = 2;
constexpr int kSadaeProbeSteps = 20;

/// Iteration boundaries and per-call spans of one Train() call. Fed by
/// the agent/env decorators, the training observer and the evaluator.
class LoopTracker : public core::TrainingObserver {
 public:
  explicit LoopTracker(SpanLog* spans) : spans_(spans) {}

  void StartLoop() {
    iteration_start_ = Now();
    loop_start_ = iteration_start_;
  }
  /// Opens the iteration and collection spans on the first call of an
  /// iteration (so nothing is left open after the last one).
  void EnsureIteration() {
    if (iteration_open_) return;
    iteration_open_ = true;
    eval_s_ = 0.0;
    iteration_span_ =
        spans_->Add("train.iteration", iteration_start_, 0.0, -1);
    collect_span_ =
        spans_->Add("rl.collect", iteration_start_, 0.0, iteration_span_);
  }
  void EndCollect() {
    spans_->End(collect_span_);
    collect_span_ = -1;
    update_span_ = spans_->Begin("rl.update", iteration_span_);
  }
  void EndUpdate() {
    spans_->End(update_span_);
    update_span_ = -1;
  }
  int64_t collect_span() const { return collect_span_; }
  int64_t update_span() const { return update_span_; }
  int64_t iteration_span() const { return iteration_span_; }
  bool in_eval() const { return in_eval_; }

  /// Wraps the benchmark's evaluator: the evaluation is timed and its
  /// agent/env calls are not counted as training transitions.
  double Evaluate(const std::function<double()>& evaluate) {
    EnsureIteration();
    EndUpdate();
    const int64_t span = spans_->Begin("rl.eval", iteration_span_);
    const double start = Now();
    in_eval_ = true;
    const double value = evaluate();
    in_eval_ = false;
    eval_s_ = Now() - start;
    spans_->End(span);
    final_return_ = value;
    ++evaluations_;
    return value;
  }

  void OnIteration(const core::IterationLog& log) override {
    EnsureIteration();
    EndUpdate();
    const double now = Now();
    spans_->End(iteration_span_);
    iteration_ms_.push_back((now - iteration_start_ - eval_s_) * 1e3);
    eval_ms_.push_back(eval_s_ * 1e3);
    iteration_open_ = false;
    iteration_start_ = now;
    loop_end_ = now;
    logs_.push_back(log);
  }

  void AddTransitions(int64_t n) { transitions_ += n; }
  void AddPpoEpoch() { ++ppo_epochs_; }

  const std::vector<double>& iteration_ms() const { return iteration_ms_; }
  const std::vector<double>& eval_ms() const { return eval_ms_; }
  const std::vector<core::IterationLog>& logs() const { return logs_; }
  double loop_s() const { return loop_end_ - loop_start_; }
  int64_t transitions() const { return transitions_; }
  int64_t ppo_epochs() const { return ppo_epochs_; }
  double final_return() const { return final_return_; }
  int evaluations() const { return evaluations_; }
  SpanLog* spans() { return spans_; }

 private:
  SpanLog* spans_;
  bool iteration_open_ = false;
  bool in_eval_ = false;
  double iteration_start_ = 0.0, loop_start_ = 0.0, loop_end_ = 0.0;
  double eval_s_ = 0.0;  // evaluation time of the open iteration
  int64_t iteration_span_ = -1, collect_span_ = -1, update_span_ = -1;
  std::vector<double> iteration_ms_;  // collect + update, per iteration
  std::vector<double> eval_ms_;       // evaluation, per iteration
  std::vector<core::IterationLog> logs_;
  int64_t transitions_ = 0, ppo_epochs_ = 0;
  double final_return_ = std::nan("");
  int evaluations_ = 0;
};

/// Forwards every rl::Agent call unchanged; times Step and
/// ForwardRollout and marks the end of collection at the bootstrap
/// Values call.
class TimedAgent : public rl::Agent {
 public:
  TimedAgent(rl::Agent* inner, LoopTracker* tracker)
      : inner_(inner), tracker_(tracker) {}

  int obs_dim() const override { return inner_->obs_dim(); }
  int action_dim() const override { return inner_->action_dim(); }
  void BeginEpisode(int n) override {
    if (!tracker_->in_eval()) tracker_->EnsureIteration();
    inner_->BeginEpisode(n);
  }
  StepOutput Step(const nn::Tensor& obs, Rng& rng,
                  bool deterministic) override {
    if (tracker_->in_eval()) return inner_->Step(obs, rng, deterministic);
    const int64_t span =
        tracker_->spans()->Begin("core.agent_step", tracker_->collect_span());
    StepOutput out = inner_->Step(obs, rng, deterministic);
    tracker_->spans()->End(span);
    return out;
  }
  std::vector<double> Values(const nn::Tensor& obs) override {
    std::vector<double> values = inner_->Values(obs);
    if (!tracker_->in_eval()) tracker_->EndCollect();
    return values;
  }
  SequenceForward ForwardRollout(nn::Tape& tape,
                                 const rl::Rollout& rollout) override {
    tracker_->AddPpoEpoch();
    const int64_t span = tracker_->spans()->Begin(
        "core.forward_rollout", tracker_->update_span());
    SequenceForward out = inner_->ForwardRollout(tape, rollout);
    tracker_->spans()->End(span);
    return out;
  }
  std::vector<nn::Parameter*> TrainableParameters() override {
    return inner_->TrainableParameters();
  }

 private:
  rl::Agent* inner_;
  LoopTracker* tracker_;
};

/// Forwards every envs::GroupBatchEnv call unchanged; counts and times
/// training Steps.
class TimedEnv : public envs::GroupBatchEnv {
 public:
  TimedEnv(envs::GroupBatchEnv* inner, LoopTracker* tracker)
      : inner_(inner), tracker_(tracker) {}

  envs::GroupBatchEnv* inner() { return inner_; }
  int num_users() const override { return inner_->num_users(); }
  int obs_dim() const override { return inner_->obs_dim(); }
  int action_dim() const override { return inner_->action_dim(); }
  int horizon() const override { return inner_->horizon(); }
  nn::Tensor Reset(Rng& rng) override { return inner_->Reset(rng); }
  envs::StepResult Step(const nn::Tensor& actions, Rng& rng) override {
    if (tracker_->in_eval()) return inner_->Step(actions, rng);
    tracker_->AddTransitions(actions.rows());
    const int64_t span =
        tracker_->spans()->Begin("envs.step", tracker_->collect_span());
    envs::StepResult out = inner_->Step(actions, rng);
    tracker_->spans()->End(span);
    return out;
  }
  std::vector<double> action_low() const override {
    return inner_->action_low();
  }
  std::vector<double> action_high() const override {
    return inner_->action_high();
  }

 private:
  envs::GroupBatchEnv* inner_;
  LoopTracker* tracker_;
};

/// Everything one Train() call needs, built by a workload's set-up.
struct TrainSetup {
  std::vector<std::unique_ptr<envs::GroupBatchEnv>> owned_envs;
  std::vector<envs::GroupBatchEnv*> envs;
  std::unique_ptr<sadae::Sadae> sadae_model;
  std::unique_ptr<sadae::SadaeTrainer> sadae_trainer;
  std::vector<nn::Tensor> sadae_sets_storage;
  const std::vector<nn::Tensor>* sadae_sets = nullptr;
  std::unique_ptr<core::ContextAgent> agent;
  core::TrainLoopConfig loop;
  double pretrain_loss = 0.0;
  double pretrain_s = 0.0;
  /// Re-draws omega for the drawn env (DPR); receives the inner env.
  std::function<void(envs::GroupBatchEnv*, Rng&)> on_env_selected;
  /// Deployment probe on the held-out target.
  std::function<double(rl::Agent&, Rng&)> evaluate;
};

double PretrainSadae(TrainSetup* setup, int epochs, Rng& rng) {
  const double start = Now();
  for (int epoch = 0; epoch < epochs; ++epoch) {
    setup->pretrain_loss =
        setup->sadae_trainer->TrainEpoch(*setup->sadae_sets, rng);
  }
  setup->pretrain_s = Now() - start;
  return setup->pretrain_s;
}

int IterationsPerRepeat(const Options& options, int per_second) {
  return std::max(kMinIterations, options.seconds * per_second / kRepeats);
}

// ---------------------------------------------------------------- LTS

experiments::LtsExperimentConfig LtsConfig(const Options& options) {
  experiments::LtsExperimentConfig config;
  config.num_users = kLtsUsers;
  config.horizon = kLtsHorizon;
  config.sadae_pretrain_epochs = kLtsSadaePretrainEpochs;
  config.iterations = IterationsPerRepeat(options, kLtsIterationsPerSecond);
  config.seed = options.seed;
  return config;
}

envs::LtsConfig LtsEnvConfig(double omega_g,
                             const experiments::LtsExperimentConfig& config,
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

/// The Sim2Rec branch of experiments::RunLtsVariant up to Train().
std::unique_ptr<TrainSetup> SetUpLts(const Options& options) {
  const experiments::LtsExperimentConfig config = LtsConfig(options);
  auto setup = std::make_unique<TrainSetup>();
  Rng rng(config.seed);
  const std::vector<double> omegas = envs::LtsTaskOmegas(4);
  for (double omega : omegas) {
    setup->owned_envs.push_back(std::make_unique<envs::LtsEnv>(
        LtsEnvConfig(omega, config, rng.NextU64())));
    setup->envs.push_back(setup->owned_envs.back().get());
  }
  auto target = std::make_shared<envs::LtsEnv>(
      LtsEnvConfig(0.0, config, rng.NextU64()));

  core::ContextAgentConfig agent_config = baselines::MakeAgentConfig(
      baselines::AgentVariant::kSim2Rec, envs::kLtsObsDim, 1);
  agent_config.lstm_hidden = config.lstm_hidden;
  agent_config.f_hidden = config.f_hidden;
  agent_config.f_out = config.f_out;
  agent_config.policy_hidden = config.policy_hidden;
  agent_config.value_hidden = config.value_hidden;
  agent_config.action_bias = {0.5};

  sadae::SadaeConfig sadae_config;
  sadae_config.state_dim = envs::kLtsObsDim;
  sadae_config.latent_dim = config.sadae_latent;
  sadae_config.encoder_hidden = config.sadae_hidden;
  sadae_config.decoder_hidden = config.sadae_hidden;
  Rng sadae_rng = rng.Split(1);
  setup->sadae_model = std::make_unique<sadae::Sadae>(sadae_config, sadae_rng);
  setup->sadae_sets_storage =
      experiments::CollectLtsStateSets(omegas, config, sadae_rng);
  setup->sadae_sets = &setup->sadae_sets_storage;
  sadae::SadaeTrainConfig sadae_train;
  sadae_train.learning_rate = 2e-3;
  setup->sadae_trainer = std::make_unique<sadae::SadaeTrainer>(
      setup->sadae_model.get(), sadae_train);
  PretrainSadae(setup.get(), config.sadae_pretrain_epochs, sadae_rng);

  Rng agent_rng = rng.Split(2);
  setup->agent = std::make_unique<core::ContextAgent>(
      agent_config, setup->sadae_model.get(), agent_rng);

  setup->loop.iterations = config.iterations;
  setup->loop.eval_every = config.eval_every;
  setup->loop.eval_episodes = config.eval_episodes;
  setup->loop.ppo = config.ppo;
  setup->loop.sadae_steps_per_iteration = 1;
  setup->loop.seed = rng.NextU64();
  const int episodes = config.eval_episodes;
  setup->evaluate = [target, episodes](rl::Agent& agent, Rng& eval_rng) {
    return rl::EvaluateAgentReturn(*target, agent, episodes, eval_rng,
                                   /*deterministic=*/true);
  };
  return setup;
}

// ---------------------------------------------------------------- DPR

experiments::DprPipelineConfig DprConfig(const Options& options) {
  experiments::DprPipelineConfig config;
  config.sim_train.epochs = kDprSimulatorEpochs;
  config.seed = options.seed;
  return config;
}

experiments::DprTrainOptions DprOptions(const Options& options) {
  experiments::DprTrainOptions train;
  train.iterations = IterationsPerRepeat(options, kDprIterationsPerSecond);
  train.sadae_pretrain_epochs = kDprSadaePretrainEpochs;
  train.seed = options.seed;
  return train;
}

/// experiments::TrainDprPolicy for the Sim2Rec variant, up to Train().
std::unique_ptr<TrainSetup> SetUpDprTraining(
    const experiments::DprPipeline& pipeline,
    const experiments::DprTrainOptions& options) {
  auto setup = std::make_unique<TrainSetup>();
  Rng rng(options.seed ^ 0xd5f3u);
  const sim2rec::data::LoggedDataset& train_data = pipeline.filtered_train;
  for (int g : train_data.GroupIds()) {
    sim::SimEnvConfig env_config = pipeline.config.sim_env;
    env_config.cost_factor = pipeline.world->city(g).cost_factor;
    setup->owned_envs.push_back(std::make_unique<sim::SimGroupEnv>(
        &train_data, g, &pipeline.ensemble, env_config));
    setup->envs.push_back(setup->owned_envs.back().get());
  }

  core::ContextAgentConfig agent_config = baselines::MakeAgentConfig(
      options.variant, envs::kDprObsDim, envs::kDprActionDim);
  agent_config.lstm_hidden = options.lstm_hidden;
  agent_config.f_hidden = options.f_hidden;
  agent_config.f_out = options.f_out;
  agent_config.policy_hidden = options.policy_hidden;
  agent_config.value_hidden = options.value_hidden;
  agent_config.init_log_std = -2.0;
  {
    nn::Tensor inputs, targets;
    train_data.FlattenForSimulator(&inputs, &targets);
    agent_config.action_bias.assign(envs::kDprActionDim, 0.0);
    for (int c = 0; c < envs::kDprActionDim; ++c) {
      double mean = 0.0;
      for (int r = 0; r < inputs.rows(); ++r) {
        mean += inputs(r, envs::kDprObsDim + c);
      }
      agent_config.action_bias[c] = mean / inputs.rows();
    }
  }

  sadae::SadaeConfig sadae_config;
  sadae_config.state_dim = envs::kDprContinuousObsDim;
  sadae_config.categorical_dim = envs::kDprTierCount;
  sadae_config.action_dim = envs::kDprActionDim;
  sadae_config.latent_dim = options.sadae_latent;
  sadae_config.encoder_hidden = options.sadae_hidden;
  sadae_config.decoder_hidden = options.sadae_hidden;
  Rng sadae_rng = rng.Split(3);
  setup->sadae_model = std::make_unique<sadae::Sadae>(sadae_config, sadae_rng);
  sadae::SadaeTrainConfig sadae_train;
  sadae_train.learning_rate = 1e-3;
  setup->sadae_trainer = std::make_unique<sadae::SadaeTrainer>(
      setup->sadae_model.get(), sadae_train);
  setup->sadae_sets = &pipeline.sadae_sets;
  PretrainSadae(setup.get(), options.sadae_pretrain_epochs, sadae_rng);

  Rng agent_rng = rng.Split(4);
  setup->agent = std::make_unique<core::ContextAgent>(
      agent_config, setup->sadae_model.get(), agent_rng);

  setup->loop.iterations = options.iterations;
  setup->loop.eval_every = options.eval_every;
  setup->loop.ppo = options.ppo;
  setup->loop.final_learning_rate = options.ppo.learning_rate * 0.05;
  setup->loop.sadae_steps_per_iteration = 1;
  setup->loop.seed = rng.NextU64();

  const std::vector<int> sim_choices = pipeline.train_sim_indices;
  setup->on_env_selected = [sim_choices](envs::GroupBatchEnv* env,
                                         Rng& env_rng) {
    static_cast<sim::SimGroupEnv*>(env)->set_active_simulator(
        sim_choices[env_rng.UniformInt(static_cast<int>(sim_choices.size()))]);
  };
  const int eval_sim = pipeline.heldout_sim_indices[0];
  const experiments::DprPipeline* pipeline_ptr = &pipeline;
  setup->evaluate = [pipeline_ptr, eval_sim](rl::Agent& agent,
                                             Rng& eval_rng) {
    return experiments::EvaluateAgentOnSimulator(
        *pipeline_ptr, pipeline_ptr->test_data, eval_sim, agent, eval_rng,
        /*episodes_per_group=*/1);
  };
  return setup;
}

struct DprSetup {
  std::shared_ptr<const experiments::DprPipeline> pipeline;
  std::unique_ptr<TrainSetup> train;
};

/// Builds the pipeline, or reuses `pipeline` when it is non-null, and
/// sets up training on it.
std::unique_ptr<DprSetup> SetUpDpr(
    const Options& options,
    std::shared_ptr<const experiments::DprPipeline> pipeline = nullptr) {
  auto setup = std::make_unique<DprSetup>();
  setup->pipeline =
      pipeline != nullptr
          ? std::move(pipeline)
          : std::make_shared<const experiments::DprPipeline>(
                experiments::BuildDprPipeline(DprConfig(options)));
  setup->train = SetUpDprTraining(*setup->pipeline, DprOptions(options));
  return setup;
}

// ------------------------------------------------------------- running

struct LoopResult {
  std::vector<core::IterationLog> logs;
  std::vector<double> iteration_ms;
  std::vector<double> eval_ms;
  double loop_s = 0.0;
  int64_t transitions = 0;
  int64_t ppo_epochs = 0;
  double final_return = 0.0;
  int evaluations = 0;
};

LoopResult RunLoop(TrainSetup* setup, SpanLog* spans) {
  LoopTracker tracker(spans);
  TimedAgent agent(setup->agent.get(), &tracker);
  std::vector<std::unique_ptr<TimedEnv>> timed;
  std::vector<envs::GroupBatchEnv*> env_ptrs;
  for (envs::GroupBatchEnv* env : setup->envs) {
    timed.push_back(std::make_unique<TimedEnv>(env, &tracker));
    env_ptrs.push_back(timed.back().get());
  }
  core::ZeroShotTrainer trainer(&agent, env_ptrs, setup->loop,
                                setup->sadae_trainer.get(),
                                setup->sadae_sets);
  if (setup->on_env_selected) {
    auto hook = setup->on_env_selected;
    trainer.set_on_env_selected(
        [hook, &tracker](envs::GroupBatchEnv* env, Rng& rng) {
          tracker.EnsureIteration();
          hook(static_cast<TimedEnv*>(env)->inner(), rng);
        });
  }
  auto evaluate = setup->evaluate;
  trainer.set_evaluator([evaluate, &tracker](rl::Agent& eval_agent,
                                             Rng& rng) {
    return tracker.Evaluate([&] { return evaluate(eval_agent, rng); });
  });
  trainer.set_observer(&tracker);
  tracker.StartLoop();
  trainer.Train();

  LoopResult result;
  result.logs = tracker.logs();
  result.iteration_ms = tracker.iteration_ms();
  result.eval_ms = tracker.eval_ms();
  result.loop_s = tracker.loop_s();
  result.transitions = tracker.transitions();
  result.ppo_epochs = tracker.ppo_epochs();
  result.final_return = tracker.final_return();
  result.evaluations = tracker.evaluations();
  return result;
}

bool LogsFinite(const std::vector<core::IterationLog>& logs) {
  for (const core::IterationLog& log : logs) {
    const double fields[] = {log.train_return, log.policy_loss,
                             log.value_loss,   log.entropy,
                             log.approx_kl,    log.sadae_loss};
    for (double v : fields) {
      if (!std::isfinite(v)) return false;
    }
    if (log.has_eval() && !std::isfinite(log.eval_return)) return false;
  }
  return !logs.empty();
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

bool LogsBitwiseEqual(const std::vector<core::IterationLog>& a,
                      const std::vector<core::IterationLog>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].iteration != b[i].iteration ||
        !SameBits(a[i].train_return, b[i].train_return) ||
        !SameBits(a[i].eval_return, b[i].eval_return) ||
        !SameBits(a[i].policy_loss, b[i].policy_loss) ||
        !SameBits(a[i].value_loss, b[i].value_loss) ||
        !SameBits(a[i].entropy, b[i].entropy) ||
        !SameBits(a[i].approx_kl, b[i].approx_kl) ||
        !SameBits(a[i].sadae_loss, b[i].sadae_loss)) {
      return false;
    }
  }
  return true;
}

void CheckLoop(const LoopResult& loop, int iterations, Report* report) {
  report->CountAttempts(static_cast<int64_t>(loop.logs.size()),
                        LogsFinite(loop.logs) ? 0 : 1);
  if (static_cast<int>(loop.logs.size()) != iterations) {
    report->Fail("trainer returned " + std::to_string(loop.logs.size()) +
                 " iterations, expected " + std::to_string(iterations));
  }
  if (!LogsFinite(loop.logs)) report->Fail("non-finite IterationLog field");
  if (loop.evaluations == 0 || !std::isfinite(loop.final_return)) {
    report->Fail("no finite final evaluation");
  }
}

/// Moves the calling thread to the index-th CPU it may run on (modulo
/// their number) and then lets it run anywhere again: a lone busy
/// thread stays where it was put, so repeat i runs on its own CPU. On a
/// shared host one CPU can run 1.4x slower than another for minutes,
/// and a process otherwise spends its whole life on the CPU it started
/// on. Threads the program starts may still use every CPU.
void MoveToCpu(int index) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count < 2) return;
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || seen++ != index % count) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    break;
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
}

/// The untraced measurement: kRepeats times a fresh set-up followed by
/// a training loop, each repeat started on another CPU. `set_up(previous)`
/// sets up from scratch when `previous` is null and may reuse what
/// training only reads from `previous` otherwise; every
/// `scratch_every`-th repeat passes null, and setup_s is the median of
/// those set-ups. The repeats must log bitwise the same, so each
/// iteration does the same work in every repeat; host noise only ever
/// adds time, so an iteration's time is its minimum over the repeats.
template <typename SetUp, typename GetTrain>
void MeasureUntraced(SetUp set_up, int scratch_every, GetTrain get_train,
                     Report* report) {
  std::vector<double> setup_s;
  std::vector<LoopResult> loops;
  std::vector<int> cpus;  // where each repeat ended
  SpanLog no_spans(false);
  decltype(set_up(nullptr)) setup;
  for (int i = 0; i < kRepeats; ++i) {
    MoveToCpu(i);
    const bool scratch = i % scratch_every == 0;
    if (scratch) setup.reset();
    // The first set-up is counted from process start.
    const double offset = i == 0 ? SecondsSinceProcessStart() : 0.0;
    const double start = Now();
    auto next = set_up(setup.get());
    if (scratch) setup_s.push_back(offset + Now() - start);
    setup = std::move(next);
    TrainSetup* train = get_train(*setup);
    loops.push_back(RunLoop(train, &no_spans));
    cpus.push_back(sched_getcpu());
    CheckLoop(loops.back(), train->loop.iterations, report);
    if (!LogsBitwiseEqual(loops.front().logs, loops.back().logs)) {
      report->Fail("repeated training runs differ");
    }
  }
  const LoopResult& first = loops.front();
  std::vector<double> iteration_ms, with_eval_ms;
  for (size_t k = 0; k < first.iteration_ms.size(); ++k) {
    double best = first.iteration_ms[k];
    double best_with_eval = best + first.eval_ms[k];
    for (const LoopResult& loop : loops) {
      if (k >= loop.iteration_ms.size()) continue;
      best = std::min(best, loop.iteration_ms[k]);
      best_with_eval =
          std::min(best_with_eval, loop.iteration_ms[k] + loop.eval_ms[k]);
    }
    iteration_ms.push_back(best);
    with_eval_ms.push_back(best_with_eval);
  }
  double loop_ms = 0.0;
  for (double ms : with_eval_ms) loop_ms += ms;
  std::printf("# repeats: training loops of %.3f", first.loop_s);
  for (size_t i = 1; i < loops.size(); ++i) {
    std::printf(", %.3f", loops[i].loop_s);
  }
  std::printf(" s on CPUs");
  for (int cpu : cpus) std::printf(" %d", cpu);
  std::printf("; per-iteration minimum sums to %.3f s; %lld PPO epochs "
              "per repeat\n",
              loop_ms / 1e3, static_cast<long long>(first.ppo_epochs));

  const int n = static_cast<int>(iteration_ms.size());
  report->Add("setup_s", Median(setup_s), "s",
              static_cast<int64_t>(setup_s.size()), "setup_s");
  report->Add("setup.cold_s", setup_s.front(), "s", 1,
              "set-up counted from process start");
  report->Add("peak_rss_mb", PeakRssMb(), "MB", 1, "peak_rss_mb");
  report->Add("rate_per_s", first.transitions / (loop_ms / 1e3), "1/s",
              first.transitions, "train.samples_per_s");
  report->Add("p50_ms", Median(iteration_ms), "ms", n, "train.iter_ms.p50");
  report->Add("train.iter_ms.p90", Quantile(iteration_ms, 0.9), "ms", n,
              "train.iter_ms.p90");
  report->Add("train.final_return", first.final_return, "score",
              first.evaluations, "train.final_return");
}

/// Prints the self-time budget of a traced loop and reports the
/// per-layer training metrics (per-iteration means in ms).
void ReportTrainingLayers(const LoopResult& untraced, const LoopResult& traced,
                          const SpanLog& spans, double sadae_step_ms,
                          Report* report) {
  const double iterations = static_cast<double>(traced.logs.size());
  double total_s = 0.0;
  std::printf("# traced budget (self time; sums to the traced loop):\n");
  std::vector<std::pair<std::string, double>> self = spans.SelfTimes();
  for (const auto& [name, seconds] : self) total_s += seconds;
  // Iteration spans tile the loop, so this remainder is zero up to
  // rounding unless spans overlap or leave gaps.
  const double outside_s = traced.loop_s - total_s;
  auto self_of = [&](const std::string& name) {
    for (const auto& [n, s] : self) {
      if (n == name) return s;
    }
    return 0.0;
  };
  auto per_iter_ms = [&](double seconds) {
    return seconds * 1e3 / iterations;
  };
  double sum_ms = 0.0;
  for (const auto& [name, seconds] : self) {
    std::printf("#   %-22s %10.3f ms/iter %6.2f%%\n", name.c_str(),
                per_iter_ms(seconds), 100.0 * seconds / traced.loop_s);
    sum_ms += per_iter_ms(seconds);
  }
  std::printf("#   %-22s %10.3f ms/iter %6.2f%%\n", "(unattributed)",
              per_iter_ms(outside_s), 100.0 * outside_s / traced.loop_s);
  std::printf("#   %-22s %10.3f ms/iter (traced loop %.3f s)\n", "total",
              sum_ms + per_iter_ms(outside_s), traced.loop_s);

  const double agent_step = per_iter_ms(self_of("core.agent_step"));
  const double env_step = per_iter_ms(self_of("envs.step"));
  const double collect =
      per_iter_ms(self_of("rl.collect")) + agent_step + env_step;
  const double forward = per_iter_ms(self_of("core.forward_rollout"));
  const double update = per_iter_ms(self_of("rl.update")) + forward;
  const double eval = per_iter_ms(self_of("rl.eval"));
  // Unattributed: the iteration's own self time (env draw, learning-rate
  // schedule, logging) plus the loop time outside any iteration span.
  const double unattributed =
      per_iter_ms(self_of("train.iteration")) + per_iter_ms(outside_s);
  std::printf("#   rl.update split: core.forward_rollout %.3f + "
              "sadae.train_step %.3f + nn.backward (rest) %.3f ms/iter\n",
              forward, sadae_step_ms, update - forward - sadae_step_ms);
  report->Add("rl.collect_ms", collect, "ms", traced.logs.size());
  report->Add("core.agent_step_ms", agent_step, "ms", traced.logs.size());
  report->Add("envs.step_ms", env_step, "ms", traced.logs.size());
  report->Add("rl.update_ms", update, "ms", traced.logs.size());
  report->Add("core.forward_rollout_ms", forward, "ms", traced.logs.size());
  report->Add("sadae.train_step_ms", sadae_step_ms, "ms", kSadaeProbeSteps);
  report->Add("nn.backward_ms", update - forward - sadae_step_ms, "ms",
              traced.logs.size());
  report->Add("rl.eval_ms", eval, "ms", traced.evaluations);
  report->Add("rl.ppo_epochs", traced.ppo_epochs, "count", 1);
  report->Add("rl.transitions", traced.transitions, "count", 1);
  report->Add("train.final_return", traced.final_return, "score",
              traced.evaluations);
  report->Add("train.iter_ms.p90", Quantile(untraced.iteration_ms, 0.9), "ms",
              static_cast<int64_t>(untraced.iteration_ms.size()));
  report->Add("trace.overhead_pct",
              100.0 * (traced.loop_s - untraced.loop_s) / untraced.loop_s, "%",
              2);
  report->Add("trace.unattributed_pct",
              100.0 * unattributed * iterations / 1e3 / traced.loop_s, "%", 1);
}

/// Times SadaeTrainer::TrainStep alone on the same sets with the loop's
/// batch size; returns ms per iteration's worth of steps.
double ProbeSadaeStep(TrainSetup* setup) {
  Rng rng(0x5ad0e);
  std::vector<double> ms;
  const int sets = static_cast<int>(setup->sadae_sets->size());
  for (int i = 0; i < kSadaeProbeSteps; ++i) {
    std::vector<int> batch;
    for (int k = 0; k < setup->loop.sadae_sets_per_step; ++k) {
      batch.push_back(rng.UniformInt(sets));
    }
    const double start = Now();
    setup->sadae_trainer->TrainStep(*setup->sadae_sets, batch, rng);
    ms.push_back((Now() - start) * 1e3);
  }
  return Median(ms) * setup->loop.sadae_steps_per_iteration;
}

/// The traced measurement: an untraced loop, then the same loop from a
/// fresh set-up with spans. Logs must be bitwise equal.
template <typename SetUp, typename GetTrain>
void MeasureTraced(const Options& options, const std::string& workload,
                   SetUp set_up, GetTrain get_train, Report* report) {
  const double offset = SecondsSinceProcessStart();
  const double start = Now();
  auto first = set_up();
  report->Add("setup.cold_s", offset + Now() - start, "s", 1);
  SpanLog no_spans(false);
  const LoopResult untraced = RunLoop(get_train(*first), &no_spans);
  first.reset();

  auto second = set_up();
  TrainSetup* train = get_train(*second);
  report->Add("sadae.pretrain_s", train->pretrain_s, "s", 1);
  SpanLog spans(true);
  const LoopResult traced = RunLoop(train, &spans);
  CheckLoop(traced, train->loop.iterations, report);
  if (!LogsBitwiseEqual(untraced.logs, traced.logs)) {
    report->Fail("traced IterationLogs differ from untraced ones");
  }
  ReportTrainingLayers(untraced, traced, spans, ProbeSadaeStep(train),
                       report);
  std::filesystem::create_directories(options.work_dir);
  const std::string path = options.work_dir + "/" + workload + ".spans.jsonl";
  if (!spans.Write(path)) report->Fail("could not write " + path);
  std::printf("# spans: %zu written to %s\n", spans.spans().size(),
              path.c_str());
}

}  // namespace

namespace {

/// A bare trainer over a set-up, wired as the experiment functions wire
/// theirs: no decorators, no observer.
std::vector<core::IterationLog> TrainBare(TrainSetup* setup) {
  core::ZeroShotTrainer trainer(setup->agent.get(), setup->envs, setup->loop,
                                setup->sadae_trainer.get(),
                                setup->sadae_sets);
  if (setup->on_env_selected) {
    trainer.set_on_env_selected(setup->on_env_selected);
  }
  trainer.set_evaluator(setup->evaluate);
  return trainer.Train();
}

}  // namespace

bool TrainingDecoratorsForwardUnchanged() {
  Options options;
  options.seed = 7;
  options.seconds = 1;
  auto bare = SetUpLts(options);
  const std::vector<core::IterationLog> expected = TrainBare(bare.get());
  for (const bool traced : {false, true}) {
    auto setup = SetUpLts(options);
    SpanLog spans(traced);
    const LoopResult loop = RunLoop(setup.get(), &spans);
    if (!LogsBitwiseEqual(expected, loop.logs)) return false;
    if (traced && spans.spans().empty()) return false;
  }
  return true;
}

bool LtsSetUpMatchesExperiment() {
  Options options;
  options.seed = 7;
  options.seconds = 1;
  const experiments::LtsRunResult expected = experiments::RunLtsVariant(
      baselines::AgentVariant::kSim2Rec, envs::LtsTaskOmegas(4),
      LtsConfig(options));
  auto setup = SetUpLts(options);
  const std::vector<core::IterationLog> logs = TrainBare(setup.get());
  std::vector<double> eval_returns;
  for (const core::IterationLog& log : logs) {
    if (log.has_eval()) eval_returns.push_back(log.eval_return);
  }
  if (eval_returns.size() != expected.eval_returns.size()) return false;
  for (size_t i = 0; i < eval_returns.size(); ++i) {
    if (!SameBits(eval_returns[i], expected.eval_returns[i])) return false;
  }
  return SameBits(eval_returns.back(), expected.final_return);
}

bool DprSetUpMatchesExperiment() {
  Options options;
  options.seed = 7;
  options.seconds = 1;
  experiments::DprPipelineConfig config = DprConfig(options);
  config.sim_train.epochs = 1;
  const experiments::DprPipeline pipeline =
      experiments::BuildDprPipeline(config);
  experiments::DprTrainOptions train = DprOptions(options);
  train.iterations = 4;
  train.eval_every = 2;
  train.sadae_pretrain_epochs = 1;
  const experiments::DprTrainedPolicy expected =
      experiments::TrainDprPolicy(pipeline, train);
  auto setup = SetUpDprTraining(pipeline, train);
  return LogsBitwiseEqual(expected.logs, TrainBare(setup.get()));
}

int RunTrainLts(const Options& options, Report* report) {
  auto get_train = [](TrainSetup& setup) { return &setup; };
  if (!options.trace) {
    MeasureUntraced([&](const TrainSetup*) { return SetUpLts(options); }, 1,
                    get_train, report);
    return 0;
  }
  MeasureTraced(options, "train-lts", [&] { return SetUpLts(options); },
                get_train, report);
  AddIdleLayers(report);
  return 0;
}

int RunTrainDpr(const Options& options, Report* report) {
  auto get_train = [](DprSetup& setup) { return setup.train.get(); };
  if (!options.trace) {
    MeasureUntraced(
        [&](const DprSetup* previous) {
          return SetUpDpr(options,
                          previous != nullptr ? previous->pipeline : nullptr);
        },
        kDprPipelineEvery, get_train, report);
    return 0;
  }
  MeasureTraced(options, "train-dpr", [&] { return SetUpDpr(options); },
                get_train, report);

  // Set-up stages timed alone, calling the same public functions in the
  // order experiments::BuildDprPipeline does.
  const experiments::DprPipelineConfig config = DprConfig(options);
  Rng rng(config.seed);
  double start = Now();
  envs::DprWorld world(config.world);
  sim2rec::data::LoggedDataset dataset =
      sim2rec::data::GenerateDprDataset(world, config.sessions_per_city, rng);
  sim2rec::data::LoggedDataset train_data(0, 0), test_data(0, 0);
  dataset.SplitUsers(config.train_fraction, rng, &train_data, &test_data);
  report->Add("data.dataset_s", Now() - start, "s", 1);
  Rng ensemble_rng = rng.Split(1);
  start = Now();
  sim::SimulatorEnsemble ensemble = sim::SimulatorEnsemble::Build(
      train_data, config.ensemble_size, config.sim_train, ensemble_rng);
  report->Add("sim.ensemble_build_s", Now() - start, "s", 1);
  if (config.parallel_ensemble) {
    ensemble.set_thread_pool(&core::ThreadPool::Global());
  }
  start = Now();
  const std::vector<int> keep = sim::TrendFilter(
      ensemble, train_data, config.trend_deltas, /*bonus_action_index=*/1);
  sim::SelectTrajectories(train_data, keep);
  report->Add("sim.trend_filter_s", Now() - start, "s", 1);
  report->Add("sim.trend_keep_ratio",
              static_cast<double>(keep.size()) / train_data.size(), "ratio",
              train_data.size());
  AddIdleLayers(report);
  return 0;
}

}  // namespace perfbench
