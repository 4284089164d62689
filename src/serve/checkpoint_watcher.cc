#include "serve/checkpoint_watcher.h"

#include <chrono>
#include <filesystem>
#include <utility>

#include "obs/trace.h"
#include "util/logging.h"

namespace sim2rec {
namespace serve {
namespace {

std::string RejectKey(const std::string& dir, uint64_t generation) {
  return dir + "#" + std::to_string(generation);
}

}  // namespace

const char* SwapOutcomeName(SwapOutcome outcome) {
  switch (outcome) {
    case SwapOutcome::kNoCandidate:
      return "no_candidate";
    case SwapOutcome::kSwapped:
      return "swapped";
    case SwapOutcome::kLoadFailed:
      return "load_failed";
    case SwapOutcome::kFreezeFailed:
      return "freeze_failed";
    case SwapOutcome::kIncompatible:
      return "incompatible";
  }
  return "unknown";
}

CheckpointWatcher::CheckpointWatcher(ServeRouter* router,
                                     const CheckpointWatcherConfig& config)
    : router_(router), config_(config),
      generation_(config.initial_generation) {
  S2R_CHECK(router_ != nullptr);
  S2R_CHECK(!config_.dir.empty());
  S2R_CHECK(config_.poll_interval_ms >= 1);
  obs::MetricsRegistry& registry = config_.registry != nullptr
                                       ? *config_.registry
                                       : obs::MetricsRegistry::Global();
  metric_generation_ = registry.GetGauge("serve.checkpoint_generation");
  metric_swaps_ = registry.GetCounter("serve.checkpoint_swaps");
  metric_rejects_ = registry.GetCounter("serve.checkpoint_rejects");
  if (obs::Enabled() && generation_ != 0) {
    metric_generation_->SetMax(static_cast<double>(generation_));
  }
}

CheckpointWatcher::~CheckpointWatcher() { Stop(); }

bool CheckpointWatcher::FindCandidateLocked(Candidate* candidate) const {
  std::error_code ec;
  std::filesystem::directory_iterator it(config_.dir, ec);
  if (ec) return false;  // no directory yet: nothing to watch
  Candidate best;
  for (const auto& entry : it) {
    if (!entry.is_directory(ec) || ec) continue;
    CheckpointInfo info;
    if (!ReadCheckpointInfo(entry.path().string(), &info)) continue;
    // generation 0 = not part of a sequence, never a swap candidate.
    if (info.generation <= generation_) continue;
    if (rejected_.count(
            RejectKey(entry.path().string(), info.generation)) != 0) {
      continue;
    }
    if (info.generation > best.generation) {
      best.generation = info.generation;
      best.dir = entry.path().string();
    }
  }
  if (best.generation == 0) return false;
  *candidate = std::move(best);
  return true;
}

void CheckpointWatcher::RejectLocked(const Candidate& candidate,
                                     const char* why) {
  rejected_.insert(RejectKey(candidate.dir, candidate.generation));
  ++reject_count_;
  if (obs::Enabled()) metric_rejects_->Add(1);
  S2R_LOG_WARN(
      "checkpoint_watcher: rejecting generation %llu at '%s' (%s) — "
      "serving stays on generation %llu; re-export under a new "
      "generation to retry",
      static_cast<unsigned long long>(candidate.generation),
      candidate.dir.c_str(), why,
      static_cast<unsigned long long>(generation_));
}

SwapResult CheckpointWatcher::PollOnce() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++polls_;
  SwapResult result;

  Candidate candidate;
  if (!FindCandidateLocked(&candidate)) return result;  // kNoCandidate
  result.generation = candidate.generation;
  result.dir = candidate.dir;

  // The span covers the whole attempt — load, freeze, and the
  // drain-barrier swap — so a trace shows exactly how long serving
  // was exposed to swap work for each generation.
  S2R_TRACE_SPAN("serve/hot_swap", "generation",
                 static_cast<double>(candidate.generation));

  LoadResult loaded = LoadCheckpointEx(candidate.dir);
  if (loaded.status != LoadStatus::kOk) {
    result.outcome = SwapOutcome::kLoadFailed;
    result.load_status = loaded.status;
    RejectLocked(candidate, loaded.status == LoadStatus::kVersionUnsupported
                                ? "unsupported manifest version"
                                : "load failed");
    return result;
  }

  std::shared_ptr<const infer::InferencePlan> plan =
      FreezePlan(*loaded.policy);  // soft-fail, logs the reason
  if (plan == nullptr) {
    result.outcome = SwapOutcome::kFreezeFailed;
    RejectLocked(candidate, "freeze failed");
    return result;
  }

  if (!router_->SwapModel(loaded.policy->agent.get(), std::move(plan))) {
    result.outcome = SwapOutcome::kIncompatible;
    RejectLocked(candidate, "session-incompatible config");
    return result;
  }

  previous_ = std::move(current_);
  current_ = std::move(loaded.policy);
  generation_ = candidate.generation;
  ++swaps_;
  if (obs::Enabled()) {
    metric_generation_->SetMax(static_cast<double>(generation_));
    metric_swaps_->Add(1);
  }
  S2R_LOG_INFO("checkpoint_watcher: now serving generation %llu from '%s'",
               static_cast<unsigned long long>(generation_),
               candidate.dir.c_str());
  result.outcome = SwapOutcome::kSwapped;
  return result;
}

void CheckpointWatcher::Start() {
  std::lock_guard<std::mutex> lock(thread_mutex_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(thread_mutex_);
    while (!stop_) {
      lock.unlock();
      PollOnce();
      lock.lock();
      stop_cv_.wait_for(lock,
                        std::chrono::milliseconds(config_.poll_interval_ms),
                        [this] { return stop_; });
    }
  });
}

void CheckpointWatcher::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(thread_mutex_);
    stop_ = true;
    stop_cv_.notify_all();
    to_join = std::move(thread_);
  }
  if (to_join.joinable()) to_join.join();
}

uint64_t CheckpointWatcher::generation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return generation_;
}

CheckpointWatcher::Stats CheckpointWatcher::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.polls = polls_;
  stats.swaps = swaps_;
  stats.rejects = reject_count_;
  stats.generation = generation_;
  return stats;
}

}  // namespace serve
}  // namespace sim2rec
