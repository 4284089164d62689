#include "rl/rollout.h"

#include <algorithm>

#include "obs/trace.h"

namespace sim2rec {
namespace rl {

double Rollout::MaskSum() const {
  double sum = 0.0;
  for (const auto& step : mask) {
    for (double m : step) sum += m;
  }
  return sum;
}

double Rollout::MeanReturn() const {
  if (num_users == 0) return 0.0;
  std::vector<double> totals(num_users, 0.0);
  for (int t = 0; t < num_steps; ++t) {
    for (int i = 0; i < num_users; ++i) {
      const double m = mask.empty() ? 1.0 : mask[t][i];
      totals[i] += rewards[t][i] * m;
    }
  }
  double sum = 0.0;
  for (double v : totals) sum += v;
  return sum / num_users;
}

void ComputeGae(Rollout* rollout, double gamma, double lambda) {
  const int t_max = rollout->num_steps;
  const int n = rollout->num_users;
  rollout->advantages.assign(t_max, std::vector<double>(n, 0.0));
  rollout->returns.assign(t_max, std::vector<double>(n, 0.0));
  rollout->mask.assign(t_max, std::vector<double>(n, 0.0));

  for (int i = 0; i < n; ++i) {
    // Valid until (and including) the first done step.
    int first_done = t_max;  // exclusive of the step itself
    for (int t = 0; t < t_max; ++t) {
      rollout->mask[t][i] = 1.0;
      if (rollout->dones[t][i]) {
        first_done = t;
        break;
      }
    }
    double gae = 0.0;
    const int last_valid = std::min(first_done, t_max - 1);
    for (int t = last_valid; t >= 0; --t) {
      const bool terminal = rollout->dones[t][i] != 0;
      const double next_value =
          terminal ? 0.0
                   : (t == t_max - 1 ? rollout->last_values[i]
                                     : rollout->values[t + 1][i]);
      const double delta = rollout->rewards[t][i] + gamma * next_value -
                           rollout->values[t][i];
      gae = delta + gamma * lambda * (terminal ? 0.0 : gae);
      rollout->advantages[t][i] = gae;
      rollout->returns[t][i] = gae + rollout->values[t][i];
    }
  }
}

Rollout CollectRollout(envs::GroupBatchEnv& env, Agent& agent,
                       int num_steps, Rng& rng) {
  S2R_CHECK(agent.obs_dim() == env.obs_dim());
  S2R_CHECK(agent.action_dim() == env.action_dim());
  S2R_TRACE_SPAN("rollout/collect");
  const int t_max = std::min(num_steps, env.horizon());
  const int n = env.num_users();

  Rollout rollout;
  rollout.num_steps = t_max;
  rollout.num_users = n;

  agent.BeginEpisode(n);
  nn::Tensor obs = env.Reset(rng);
  for (int t = 0; t < t_max; ++t) {
    Agent::StepOutput step = agent.Step(obs, rng, /*deterministic=*/false);
    envs::StepResult result = env.Step(step.actions, rng);

    rollout.obs.push_back(obs);
    rollout.actions.push_back(step.actions);
    rollout.values.push_back(step.values);
    rollout.log_probs.push_back(step.log_probs);
    rollout.rewards.push_back(result.rewards);
    rollout.dones.push_back(result.dones);

    obs = result.next_obs;
    if (result.horizon_reached) {
      rollout.num_steps = t + 1;
      break;
    }
  }
  rollout.last_obs = obs;
  rollout.last_values = agent.Values(obs);
  return rollout;
}

double EvaluateAgentReturn(envs::GroupBatchEnv& env, Agent& agent,
                           int episodes, Rng& rng, bool deterministic) {
  S2R_CHECK(episodes >= 1);
  double total = 0.0;
  for (int e = 0; e < episodes; ++e) {
    const int n = env.num_users();
    agent.BeginEpisode(n);
    nn::Tensor obs = env.Reset(rng);
    std::vector<double> returns(n, 0.0);
    std::vector<uint8_t> finished(n, 0);
    for (int t = 0; t < env.horizon(); ++t) {
      Agent::StepOutput step = agent.Step(obs, rng, deterministic);
      envs::StepResult result = env.Step(step.actions, rng);
      for (int i = 0; i < n; ++i) {
        if (!finished[i]) returns[i] += result.rewards[i];
        if (result.dones[i]) finished[i] = 1;
      }
      obs = result.next_obs;
      if (result.horizon_reached) break;
    }
    double mean = 0.0;
    for (double r : returns) mean += r;
    total += mean / n;
  }
  return total / episodes;
}

}  // namespace rl
}  // namespace sim2rec
