#include <gtest/gtest.h>

#include <cmath>

#include "data/generation.h"
#include "sim/ensemble.h"
#include "sim/filters.h"
#include "sim/sim_env.h"

namespace sim2rec {
namespace sim {
namespace {

envs::DprConfig SmallDpr() {
  envs::DprConfig config;
  config.num_cities = 2;
  config.drivers_per_city = 8;
  config.horizon = 8;
  return config;
}

SimulatorTrainConfig QuickTrainConfig() {
  SimulatorTrainConfig config;
  config.hidden_dims = {32, 32};
  config.epochs = 25;
  config.batch_size = 64;
  return config;
}

// Shared fixture data: generating the dataset once keeps the suite fast.
class SimTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new envs::DprWorld(SmallDpr());
    Rng rng(1);
    dataset_ = new data::LoggedDataset(
        data::GenerateDprDataset(*world_, 2, rng));
    Rng ensemble_rng(2);
    ensemble_ = new SimulatorEnsemble(SimulatorEnsemble::Build(
        *dataset_, 3, QuickTrainConfig(), ensemble_rng));
  }
  static void TearDownTestSuite() {
    delete ensemble_;
    delete dataset_;
    delete world_;
    ensemble_ = nullptr;
    dataset_ = nullptr;
    world_ = nullptr;
  }

  static envs::DprWorld* world_;
  static data::LoggedDataset* dataset_;
  static SimulatorEnsemble* ensemble_;
};

envs::DprWorld* SimTest::world_ = nullptr;
data::LoggedDataset* SimTest::dataset_ = nullptr;
SimulatorEnsemble* SimTest::ensemble_ = nullptr;

TEST_F(SimTest, TrainingReducesNll) {
  nn::Tensor inputs, targets;
  dataset_->FlattenForSimulator(&inputs, &targets);

  SimulatorTrainConfig config = QuickTrainConfig();
  config.epochs = 1;
  double nll_short = 0.0;
  TrainSimulator(inputs, targets, dataset_->obs_dim(),
                 dataset_->action_dim(), config, &nll_short);

  config.epochs = 25;
  double nll_long = 0.0;
  TrainSimulator(inputs, targets, dataset_->obs_dim(),
                 dataset_->action_dim(), config, &nll_long);
  EXPECT_LT(nll_long, nll_short);
}

TEST_F(SimTest, PredictionTracksData) {
  nn::Tensor inputs, targets;
  dataset_->FlattenForSimulator(&inputs, &targets);
  const FeedbackPrediction pred =
      ensemble_->simulator(0).Predict(inputs);
  // Mean absolute error well below the target spread.
  double mae = 0.0, spread = 0.0;
  const double target_mean = targets.MeanAll();
  for (int i = 0; i < targets.rows(); ++i) {
    mae += std::abs(pred.mean(i, 0) - targets(i, 0));
    spread += std::abs(targets(i, 0) - target_mean);
  }
  EXPECT_LT(mae, 0.5 * spread);
}

TEST_F(SimTest, SampleFeedbackNonNegative) {
  nn::Tensor inputs, targets;
  dataset_->FlattenForSimulator(&inputs, &targets);
  Rng rng(3);
  const nn::Tensor y =
      ensemble_->simulator(0).SampleFeedback(inputs, rng);
  EXPECT_GE(y.MinAll(), 0.0);
}

TEST_F(SimTest, UncertaintyHigherOffData) {
  nn::Tensor inputs, targets;
  dataset_->FlattenForSimulator(&inputs, &targets);
  const nn::Tensor on_data = inputs.SliceRows(0, 32);
  nn::Tensor off_data = on_data;
  // Push actions far outside the behaviour envelope.
  for (int r = 0; r < off_data.rows(); ++r) {
    off_data(r, envs::kDprObsDim) = 3.0;
    off_data(r, envs::kDprObsDim + 1) = -2.0;
  }
  const auto u_on = ensemble_->Uncertainty(on_data);
  const auto u_off = ensemble_->Uncertainty(off_data);
  double mean_on = 0.0, mean_off = 0.0;
  for (double u : u_on) mean_on += u;
  for (double u : u_off) mean_off += u;
  EXPECT_GT(mean_off / u_off.size(), mean_on / u_on.size());
}

TEST_F(SimTest, InterventionTestResponsesNormalized) {
  const std::vector<double> deltas = {-0.2, -0.1, 0.0, 0.1, 0.2};
  const auto responses = RunInterventionTest(
      ensemble_->simulator(0), *dataset_, deltas, /*bonus_index=*/1);
  EXPECT_EQ(responses.size(), static_cast<size_t>(dataset_->size()));
  for (const auto& r : responses) {
    ASSERT_EQ(r.response.size(), deltas.size());
    EXPECT_DOUBLE_EQ(r.response[0], 0.0);  // normalized at first point
  }
}

TEST_F(SimTest, TrendFilterSeparatesDrivers) {
  // The true world has strictly positive bonus elasticity, but the
  // logged data is confounded (the expert raises bonuses when orders
  // dip), so some drivers' simulated elasticity violates the prior —
  // the paper's Fig. 10 pathology. The filter must keep some drivers
  // and drop the violators.
  const std::vector<double> deltas = {-0.2, -0.1, 0.0, 0.1, 0.2};
  const auto keep = TrendFilter(*ensemble_, *dataset_, deltas, 1);
  EXPECT_GT(keep.size(), 0u);
  EXPECT_LT(keep.size(), static_cast<size_t>(dataset_->size()));
  const data::LoggedDataset filtered =
      SelectTrajectories(*dataset_, keep);
  EXPECT_EQ(filtered.size(), static_cast<int>(keep.size()));
  // Kept trajectories all have positive median slope by construction.
  for (int idx : keep) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, dataset_->size());
  }
}

TEST_F(SimTest, ActionExecutableBoundary) {
  data::ActionRange range;
  range.low = {0.2, 0.3};
  range.high = {0.6, 0.7};
  EXPECT_TRUE(ActionExecutable(range, {0.4, 0.5}));
  EXPECT_TRUE(ActionExecutable(range, {0.19, 0.5}, 0.02));
  EXPECT_FALSE(ActionExecutable(range, {0.1, 0.5}, 0.02));
  EXPECT_FALSE(ActionExecutable(range, {0.4, 0.9}, 0.02));
}

SimEnvConfig QuickSimEnvConfig() {
  SimEnvConfig config;
  config.rollout_users = 6;
  config.truncated_horizon = 4;
  config.uncertainty_alpha = 0.1;
  return config;
}

TEST_F(SimTest, SimEnvShapesAndTruncation) {
  SimGroupEnv env(dataset_, 0, ensemble_, QuickSimEnvConfig());
  Rng rng(4);
  const nn::Tensor obs = env.Reset(rng);
  EXPECT_EQ(obs.rows(), 6);
  EXPECT_EQ(obs.cols(), envs::kDprObsDim);
  nn::Tensor actions(6, 2, 0.4);
  for (int t = 0; t < 3; ++t) {
    EXPECT_FALSE(env.Step(actions, rng).horizon_reached);
  }
  EXPECT_TRUE(env.Step(actions, rng).horizon_reached);
}

TEST_F(SimTest, SimEnvExecFilterTerminates) {
  SimEnvConfig config = QuickSimEnvConfig();
  config.gamma = 0.9;
  config.r_min = 0.0;
  SimGroupEnv env(dataset_, 0, ensemble_, config);
  Rng rng(5);
  env.Reset(rng);
  // Action far outside any logged envelope.
  nn::Tensor bad(6, 2, 0.99);
  const envs::StepResult step = env.Step(bad, rng);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(step.dones[i], 1);
    EXPECT_DOUBLE_EQ(step.rewards[i], 0.0);  // r_min/(1-gamma) = 0
  }
}

TEST_F(SimTest, SimEnvExecFilterCanBeDisabled) {
  SimEnvConfig config = QuickSimEnvConfig();
  config.use_exec_filter = false;
  SimGroupEnv env(dataset_, 0, ensemble_, config);
  Rng rng(6);
  env.Reset(rng);
  nn::Tensor bad(6, 2, 0.99);
  const envs::StepResult step = env.Step(bad, rng);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(step.dones[i], 0);
}

TEST_F(SimTest, UncertaintyPenaltyLowersReward) {
  SimEnvConfig with = QuickSimEnvConfig();
  with.uncertainty_alpha = 1.0;
  SimEnvConfig without = QuickSimEnvConfig();
  without.uncertainty_alpha = 0.0;
  SimGroupEnv env_with(dataset_, 0, ensemble_, with);
  SimGroupEnv env_without(dataset_, 0, ensemble_, without);
  auto mean_reward = [](SimGroupEnv& env, uint64_t seed) {
    Rng rng(seed);
    env.Reset(rng);
    nn::Tensor actions(6, 2, 0.4);
    double total = 0.0;
    int count = 0;
    for (int t = 0; t < 4; ++t) {
      const envs::StepResult step = env.Step(actions, rng);
      for (double r : step.rewards) {
        total += r;
        ++count;
      }
    }
    return total / count;
  };
  EXPECT_LT(mean_reward(env_with, 7), mean_reward(env_without, 7));
}

TEST_F(SimTest, ActiveSimulatorSwappable) {
  SimGroupEnv env(dataset_, 1, ensemble_, QuickSimEnvConfig());
  env.set_active_simulator(2);
  EXPECT_EQ(env.active_simulator(), 2);
  Rng rng(8);
  env.Reset(rng);
  nn::Tensor actions(6, 2, 0.4);
  EXPECT_NO_FATAL_FAILURE(env.Step(actions, rng));
}

TEST_F(SimTest, ExecFilterExactToleranceBoundary) {
  // The executable box is [low - tol, high + tol] with *inclusive*
  // boundaries: ActionExecutable uses strict comparisons, so an action
  // landing exactly on the tolerance edge still executes. The range and
  // tolerance are chosen to be exactly representable in binary so the
  // boundary arithmetic is bit-exact.
  data::ActionRange range;
  range.low = {0.25};
  range.high = {0.75};
  const double tol = 0.125;
  EXPECT_TRUE(ActionExecutable(range, {0.25 - tol}, tol));  // on lower edge
  EXPECT_TRUE(ActionExecutable(range, {0.75 + tol}, tol));  // on upper edge
  EXPECT_FALSE(ActionExecutable(range, {std::nextafter(0.25 - tol, 0.0)},
                                tol));
  EXPECT_FALSE(ActionExecutable(range, {std::nextafter(0.75 + tol, 1.0)},
                                tol));
  // Zero tolerance degenerates to the raw logged envelope, edges included.
  EXPECT_TRUE(ActionExecutable(range, {0.25}, 0.0));
  EXPECT_TRUE(ActionExecutable(range, {0.75}, 0.0));
  EXPECT_FALSE(ActionExecutable(range, {std::nextafter(0.25, 0.0)}, 0.0));
}

TEST_F(SimTest, ExecFilterFloorRewardAppliedOncePerTermination) {
  SimEnvConfig config = QuickSimEnvConfig();
  config.gamma = 0.5;
  config.r_min = -1.0;
  // A negative tolerance shrinks every executable box to the empty set,
  // so the very first step violates F_exec for all users regardless of
  // the logged envelopes.
  config.exec_tolerance = -10.0;
  SimGroupEnv env(dataset_, 0, ensemble_, config);
  Rng rng(9);
  env.Reset(rng);
  nn::Tensor actions(6, 2, 0.4);

  const double floor = config.r_min / (1.0 - config.gamma);  // -2.0
  const envs::StepResult first = env.Step(actions, rng);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(first.dones[i], 1);
    EXPECT_DOUBLE_EQ(first.rewards[i], floor);
  }
  // The floor is a terminal payout, not an absorbing-state annuity:
  // already-done users collect reward 0 on subsequent steps.
  const envs::StepResult second = env.Step(actions, rng);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(second.dones[i], 1);
    EXPECT_DOUBLE_EQ(second.rewards[i], 0.0);
  }
}

TEST_F(SimTest, TrendFilterAllViolatingGroupYieldsEmptySelection) {
  // With an unattainable slope requirement every driver violates F_trend.
  const std::vector<double> deltas = {-0.2, -0.1, 0.0, 0.1, 0.2};
  const auto keep =
      TrendFilter(*ensemble_, *dataset_, deltas, 1, /*min_slope=*/1e9);
  EXPECT_TRUE(keep.empty());

  // Selecting an empty keep-set must yield an empty (but valid) dataset.
  const data::LoggedDataset filtered = SelectTrajectories(*dataset_, keep);
  EXPECT_EQ(filtered.size(), 0);
}

TEST_F(SimTest, StaticsFromObsRowRoundTrip) {
  envs::DriverStatic st;
  st.skill_obs = 1.2;
  st.tolerance_obs = 0.5;
  st.tenure = 0.8;
  st.city_signal = 2.1;
  st.tier = 2;
  envs::DriverHistory history;
  history.Reset(5.0);
  nn::Tensor obs(1, envs::kDprObsDim);
  envs::WriteDprObsRow(&obs, 0, st, history, 3, 10);
  const envs::DriverStatic back = StaticsFromObsRow(obs, 0);
  EXPECT_DOUBLE_EQ(back.skill_obs, 1.2);
  EXPECT_DOUBLE_EQ(back.tolerance_obs, 0.5);
  EXPECT_DOUBLE_EQ(back.tenure, 0.8);
  EXPECT_DOUBLE_EQ(back.city_signal, 2.1);
  EXPECT_EQ(back.tier, 2);
}

}  // namespace
}  // namespace sim
}  // namespace sim2rec
