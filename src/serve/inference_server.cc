#include "serve/inference_server.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/trajectory_log.h"
#include "util/logging.h"

namespace sim2rec {
namespace serve {

SessionDims SessionDimsFor(const core::ContextAgent& agent) {
  const core::ContextAgentConfig& config = agent.config();
  SessionDims dims;
  if (config.use_extractor) {
    dims.hidden = config.lstm_hidden;
    dims.has_cell = config.extractor_cell ==
                    core::ContextAgentConfig::ExtractorCell::kLstm;
  }
  dims.action_dim = config.action_dim;
  dims.latent_dim =
      agent.sadae() != nullptr ? agent.sadae()->latent_dim() : 0;
  return dims;
}

InferenceServer::InferenceServer(const core::ContextAgent* agent,
                                 const InferenceServerConfig& config)
    : agent_(agent), config_(config),
      epoch_(std::chrono::steady_clock::now()) {
  S2R_CHECK(agent != nullptr);
  S2R_CHECK(config.max_batch_size >= 1);
  S2R_CHECK(config.action_low.size() == config.action_high.size());
  S2R_CHECK(config.action_low.empty() ||
            static_cast<int>(config.action_low.size()) ==
                agent->config().action_dim);
  store_ = std::make_unique<SessionStore>(SessionDimsFor(*agent),
                                          config.sessions);
  plan_ = std::move(config_.plan);
  if (plan_ == nullptr) {
    infer::FreezeResult frozen = infer::InferencePlan::Freeze(*agent);
    S2R_CHECK_MSG(frozen.ok(),
                  ("the agent failed to freeze for serving: " + frozen.error)
                      .c_str());
    plan_ = std::move(frozen.plan);
  }
  workspace_ = std::make_unique<infer::Workspace>(
      plan_->CreateWorkspace(config_.max_batch_size));
  obs::MetricsRegistry& registry = config_.registry != nullptr
                                       ? *config_.registry
                                       : obs::MetricsRegistry::Global();
  metric_requests_ = registry.GetCounter("serve.requests");
  metric_batches_ = registry.GetCounter("serve.batches");
  metric_exec_clamps_ = registry.GetCounter("serve.exec_clamps");
  metric_latency_us_ = registry.GetHistogram("serve.latency_us");
  metric_batch_occupancy_ = registry.GetHistogram("serve.batch_occupancy");
  metric_queue_depth_ = registry.GetGauge("serve.queue_depth");
}

InferenceServer::~InferenceServer() { Shutdown(); }

void InferenceServer::Shutdown() {
  std::unique_lock<std::mutex> lock(mutex_);
  stop_ = true;
  // Requests queued before stop_ still get served: their callers run
  // the remaining batches, and the last one signals drained_cv_.
  drained_cv_.wait(lock, [&] { return !batch_running_ && queue_.empty(); });
}

bool InferenceServer::SwapModel(
    const core::ContextAgent* agent,
    std::shared_ptr<const infer::InferencePlan> plan) {
  if (agent == nullptr || plan == nullptr) return false;
  // Session compatibility: resident recurrent state must remain
  // shape-valid under the new model, and the request contract
  // (obs_dim) must not change under live clients.
  const SessionDims current = store_->dims();
  const SessionDims next = SessionDimsFor(*agent);
  if (next.hidden != current.hidden || next.has_cell != current.has_cell ||
      next.action_dim != current.action_dim ||
      next.latent_dim != current.latent_dim) {
    return false;
  }
  if (agent->config().obs_dim != agent_->config().obs_dim) return false;

  // The caller's drain guarantee means no batch is running. Releasing
  // mutex_ here, before the next batch runner acquires it, is what
  // makes the new pointers visible to that thread without any atomics
  // on the hot path.
  std::lock_guard<std::mutex> lock(mutex_);
  S2R_CHECK_MSG(queue_.empty() && !batch_running_,
                "SwapModel with requests in flight — caller failed to drain");
  agent_ = agent;
  plan_ = std::move(plan);
  workspace_ = std::make_unique<infer::Workspace>(
      plan_->CreateWorkspace(config_.max_batch_size));
  return true;
}

int64_t InferenceServer::NowMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

ServeReply InferenceServer::Act(uint64_t user_id, const nn::Tensor& obs) {
  const int obs_dim = agent_->config().obs_dim;
  if (obs.rows() != 1 || obs.cols() != obs_dim) {
    throw std::invalid_argument(
        "observation is [" + std::to_string(obs.rows()) + " x " +
        std::to_string(obs.cols()) + "], the policy takes [1 x " +
        std::to_string(obs_dim) + "]");
  }
  S2R_TRACE_SPAN("serve/act", "shard",
                 static_cast<double>(config_.shard_id));
  Pending pending;
  pending.user_id = user_id;
  pending.obs = &obs;
  pending.enqueued = std::chrono::steady_clock::now();
  pending.trace_id = obs::CurrentTraceId();

  std::unique_lock<std::mutex> lock(mutex_);
  S2R_CHECK_MSG(!stop_, "InferenceServer::Act after Shutdown");
  queue_.push_back(&pending);
  const int64_t depth =
      queue_depth_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (obs::Enabled()) {
    metric_queue_depth_->Set(static_cast<double>(depth));
  }
  while (!pending.done) {
    if (batch_running_) {
      pending.wake.wait(lock);
    } else {
      // Idle server (or the batch ahead just finished and this request
      // is the oldest still queued): this caller runs the next batch.
      RunNextBatch(lock, pending);
    }
  }
  return pending.reply;
}

void InferenceServer::EndSession(uint64_t user_id) {
  store_->Erase(user_id);
}

void InferenceServer::RunNextBatch(std::unique_lock<std::mutex>& lock,
                                   const Pending& self) {
  const int take = std::min(static_cast<int>(queue_.size()),
                            config_.max_batch_size);
  std::vector<Pending*> batch(queue_.begin(), queue_.begin() + take);
  queue_.erase(queue_.begin(), queue_.begin() + take);
  const int64_t depth =
      queue_depth_.fetch_sub(take, std::memory_order_relaxed) - take;
  if (obs::Enabled()) {
    metric_queue_depth_->Set(static_cast<double>(depth));
  }
  batch_running_ = true;
  lock.unlock();

  {
    S2R_TRACE_SPAN("serve/batch", "shard",
                   static_cast<double>(config_.shard_id), "rows",
                   static_cast<double>(take));
    ProcessBatch(batch);
  }
  const auto fulfilled = std::chrono::steady_clock::now();
  for (const Pending* p : batch) {
    const double latency_us =
        std::chrono::duration<double, std::micro>(fulfilled - p->enqueued)
            .count();
    latency_us_.Record(latency_us);
    if (obs::Enabled()) {
      metric_latency_us_->RecordWithExemplar(
          latency_us, p->trace_id, "shard",
          static_cast<double>(config_.shard_id), "batch",
          static_cast<double>(take));
    }
  }

  lock.lock();
  batch_running_ = false;
  // Signalled under the lock: a caller cannot see done, return and
  // destroy its Pending before the notify is through.
  for (Pending* p : batch) {
    p->done = true;
    p->wake.notify_one();
  }
  if (!self.done) return;  // this caller runs the next batch itself
  if (!queue_.empty()) {
    // Hand the server to the oldest waiting request's caller: the next
    // batch starts with that request.
    queue_.front()->wake.notify_one();
  } else if (stop_) {
    drained_cv_.notify_all();
  }
}

void InferenceServer::ProcessBatch(
    const std::vector<Pending*>& batch) noexcept {
  const int k = static_cast<int>(batch.size());
  S2R_CHECK(k >= 1);
  const int64_t now_ms = NowMs();
  const SessionDims& dims = store_->dims();
  const core::ContextAgentConfig& config = agent_->config();

  // Gather sessions serially so the store's LRU bookkeeping follows
  // arrival order deterministically.
  std::vector<Session> sessions(k);
  for (int i = 0; i < k; ++i) {
    sessions[i] = store_->Acquire(batch[i]->user_id, now_ms);
  }

  // Pack per-user rows into one batch (row i belongs to request i).
  nn::Tensor obs(k, config.obs_dim);
  core::ContextAgent::ServeBatch state;
  if (dims.hidden > 0) {
    state.h = nn::Tensor(k, dims.hidden);
    if (dims.has_cell) state.c = nn::Tensor(k, dims.hidden);
  }
  state.prev_actions = nn::Tensor(k, dims.action_dim);
  for (int i = 0; i < k; ++i) {
    obs.SetRow(i, *batch[i]->obs);
    if (dims.hidden > 0) {
      state.h.SetRow(i, sessions[i].h);
      if (dims.has_cell) state.c.SetRow(i, sessions[i].c);
    }
    state.prev_actions.SetRow(i, sessions[i].prev_action);
  }

  // One batched forward pass (policy + value + extractor + SADAE).
  core::ContextAgent::ServeOutput out;
  {
    S2R_TRACE_SPAN("serve/forward", "shard",
                   static_cast<double>(config_.shard_id), "rows",
                   static_cast<double>(k));
    out = plan_->ServeStep(obs, &state, workspace_.get());
  }

  // Unpack: advance each session, apply the F_exec guard, fill replies.
  const bool guard = !config_.action_low.empty();
  for (int i = 0; i < k; ++i) {
    Session& session = sessions[i];
    if (dims.hidden > 0) {
      session.h = state.h.Row(i);
      if (dims.has_cell) session.c = state.c.Row(i);
    }
    session.prev_action = state.prev_actions.Row(i);
    if (dims.latent_dim > 0) session.v = out.v.Row(i);
    ++session.steps;

    ServeReply& reply = batch[i]->reply;
    reply.action = out.actions.Row(i);
    reply.value = out.values(i, 0);
    reply.batch_size = k;
    reply.exec_clamped = false;
    if (guard) {
      for (int c = 0; c < dims.action_dim; ++c) {
        const double lo = config_.action_low[c] - config_.exec_tolerance;
        const double hi = config_.action_high[c] + config_.exec_tolerance;
        double& a = reply.action(0, c);
        if (a < lo) {
          a = lo;
          reply.exec_clamped = true;
        } else if (a > hi) {
          a = hi;
          reply.exec_clamped = true;
        }
      }
      if (reply.exec_clamped) {
        exec_clamps_.fetch_add(1, std::memory_order_relaxed);
        if (obs::Enabled()) metric_exec_clamps_->Add(1);
      }
    }
  }

  // Opt-in trajectory logging, serially (one producer at a time per
  // sink: only the thread running this batch appends) and
  // strictly read-only on the reply: the logged action is the
  // post-guard action the caller receives, the reward slot carries the
  // critic's value estimate (serving observes no environment reward),
  // and the step index is the 0-based serving step just taken.
  if (config_.trajectory_sink != nullptr) {
    for (int i = 0; i < k; ++i) {
      const ServeReply& reply = batch[i]->reply;
      config_.trajectory_sink->Append(
          batch[i]->user_id,
          static_cast<uint32_t>(sessions[i].steps - 1), reply.value,
          batch[i]->obs->data(), reply.action.data());
    }
  }

  // Commit serially, again in arrival order.
  {
    S2R_TRACE_SPAN("serve/commit", "shard",
                   static_cast<double>(config_.shard_id), "rows",
                   static_cast<double>(k));
    for (int i = 0; i < k; ++i) {
      store_->Commit(batch[i]->user_id, std::move(sessions[i]), now_ms);
    }
  }
  batch_rows_.Record(static_cast<double>(k));
  if (obs::Enabled()) {
    metric_requests_->Add(k);
    metric_batches_->Add(1);
    metric_batch_occupancy_->Record(static_cast<double>(k));
  }
}

InferenceServerStats InferenceServer::stats() const {
  InferenceServerStats stats;
  stats.requests = static_cast<int64_t>(batch_rows_.sum());
  stats.batches = batch_rows_.count();
  stats.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  stats.mean_batch_occupancy = batch_rows_.mean();
  stats.max_batch = static_cast<int>(batch_rows_.max_value());
  stats.exec_clamps = exec_clamps_.load(std::memory_order_relaxed);
  stats.latency_p50_us = latency_us_.Quantile(0.50);
  stats.latency_p95_us = latency_us_.Quantile(0.95);
  stats.latency_p99_us = latency_us_.Quantile(0.99);
  stats.latency_mean_us = latency_us_.mean();
  stats.latency_max_us = latency_us_.max_value();
  stats.sessions = store_->stats();
  return stats;
}

}  // namespace serve
}  // namespace sim2rec
