#include "serve/serve_router.h"

#include <limits>
#include <mutex>

#include "obs/trace.h"
#include "serve/trajectory_log.h"
#include "util/logging.h"

namespace sim2rec {
namespace serve {
namespace {

/// Scratch store used to funnel all shards' sessions through the
/// SessionStore snapshot format: effectively uncapped so a spill never
/// evicts.
SessionStoreConfig UncappedConfig(const SessionStoreConfig& base) {
  SessionStoreConfig config = base;
  config.max_bytes = std::numeric_limits<size_t>::max() / 2;
  return config;
}

}  // namespace

ServeRouter::ServeRouter(const core::ContextAgent* agent,
                         const ServeRouterConfig& config, int initial_shards)
    : agent_(agent), config_(config), ring_(config.virtual_nodes) {
  S2R_CHECK(agent != nullptr);
  S2R_CHECK(initial_shards >= 1);
  for (int id = 0; id < initial_shards; ++id) {
    shards_.emplace(id, MakeShard(id));
    ring_.AddNode(id);
    // Shard 0 freezes the agent unless the config brought a plan.
    // MakeShard copies this config, so every other shard, including
    // ones AddShard builds later, shares that one immutable plan
    // instead of freezing its own copy of the weights.
    config_.shard.plan = shards_.at(id).server->plan_handle();
  }
}

ServeRouter::~ServeRouter() = default;

ServeRouter::Shard ServeRouter::MakeShard(int shard_id) const {
  Shard shard;
  shard.registry = std::make_unique<obs::MetricsRegistry>();
  InferenceServerConfig config = config_.shard;
  config.registry = shard.registry.get();
  config.shard_id = shard_id;
  if (config_.trajectory_log != nullptr) {
    // Per-shard sink: InferenceServer runs one batch at a time and hands
    // the sink to the next batch runner under its mutex, so the sink
    // sees one producer at a time — exactly the SPSC contract.
    config.trajectory_sink = config_.trajectory_log->OpenSink(shard_id);
  }
  shard.server = std::make_unique<InferenceServer>(agent_, config);
  return shard;
}

ServeReply ServeRouter::Act(uint64_t user_id, const nn::Tensor& obs) {
  // Shared for the whole downstream call: this is what lets an
  // exclusive reshard double as the in-flight drain.
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const int owner = ring_.NodeFor(user_id);
  S2R_CHECK(owner >= 0);
  S2R_TRACE_SPAN("router/act", "shard", static_cast<double>(owner));
  return shards_.at(owner).server->Act(user_id, obs);
}

void ServeRouter::EndSession(uint64_t user_id) {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const int owner = ring_.NodeFor(user_id);
  if (owner < 0) return;
  shards_.at(owner).server->EndSession(user_id);
}

void ServeRouter::MigrateFrom(int from_id) {
  Shard& from = shards_.at(from_id);
  auto moved = from.server->sessions().ExtractIf([&](uint64_t user_id) {
    return ring_.NodeFor(user_id) != from_id;
  });
  for (auto& [user_id, session] : moved) {
    const int owner = ring_.NodeFor(user_id);
    S2R_CHECK(owner >= 0 && owner != from_id);
    shards_.at(owner).server->sessions().Restore(user_id,
                                                 std::move(session));
  }
}

bool ServeRouter::AddShard(int shard_id) {
  if (shard_id < 0) return false;
  std::unique_lock<std::shared_mutex> lock(mutex_);  // drain barrier
  if (ring_.HasNode(shard_id)) return false;
  S2R_TRACE_SPAN("router/reshard", "shard",
                 static_cast<double>(shard_id), "add", 1.0);
  shards_.emplace(shard_id, MakeShard(shard_id));
  ring_.AddNode(shard_id);
  // Consistent hashing: only sessions now owned by the new shard move;
  // every surviving pair keeps its assignment.
  for (auto& [id, shard] : shards_) {
    if (id != shard_id) MigrateFrom(id);
  }
  return true;
}

bool ServeRouter::RemoveShard(int shard_id) {
  std::unique_lock<std::shared_mutex> lock(mutex_);  // drain barrier
  if (!ring_.HasNode(shard_id)) return false;
  if (shards_.size() <= 1) return false;  // a router always has a shard
  S2R_TRACE_SPAN("router/reshard", "shard",
                 static_cast<double>(shard_id), "add", 0.0);
  ring_.RemoveNode(shard_id);
  // The exclusive lock guarantees no request is in flight and the
  // shard's queue is empty; Shutdown just confirms the drain.
  Shard& leaving = shards_.at(shard_id);
  leaving.server->Shutdown();
  // Off the ring the shard owns nothing, so this spills every resident
  // session into its new owner, recurrent state intact.
  MigrateFrom(shard_id);
  shards_.erase(shard_id);
  return true;
}

bool ServeRouter::SaveSessions(const std::string& path) const {
  std::unique_lock<std::shared_mutex> lock(mutex_);  // quiesced snapshot
  if (shards_.empty()) return false;
  const SessionStore& first = shards_.begin()->second.server->sessions();
  SessionStore merged(first.dims(), UncappedConfig(first.config()));
  for (const auto& [id, shard] : shards_) {
    for (auto& [user_id, session] : shard.server->sessions().ExportSessions()) {
      merged.Restore(user_id, std::move(session));
    }
  }
  return merged.Save(path);
}

bool ServeRouter::LoadSessions(const std::string& path) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (shards_.empty()) return false;
  const SessionStore& first = shards_.begin()->second.server->sessions();
  SessionStore staged(first.dims(), UncappedConfig(first.config()));
  if (!staged.Load(path)) return false;  // store untouched on failure
  for (auto& [user_id, session] : staged.ExtractIf(
           [](uint64_t) { return true; })) {
    const int owner = ring_.NodeFor(user_id);
    S2R_CHECK(owner >= 0);
    shards_.at(owner).server->sessions().Restore(user_id,
                                                 std::move(session));
  }
  return true;
}

bool ServeRouter::SwapModel(
    const core::ContextAgent* agent,
    std::shared_ptr<const infer::InferencePlan> plan) {
  if (agent == nullptr) return false;
  std::unique_lock<std::shared_mutex> lock(mutex_);  // drain barrier
  S2R_CHECK(!shards_.empty());
  S2R_TRACE_SPAN("router/swap_model", "shards",
                 static_cast<double>(shards_.size()));
  // Every shard serves the same agent, so one shard's compatibility
  // verdict is every shard's verdict: probe the first, and only commit
  // the rest once it accepts. That makes the swap all-or-nothing
  // without a separate validation pass.
  auto it = shards_.begin();
  if (!it->second.server->SwapModel(agent, plan)) return false;
  for (++it; it != shards_.end(); ++it) {
    S2R_CHECK(it->second.server->SwapModel(agent, plan));
  }
  agent_ = agent;
  // Future shards (AddShard under autoscaling) freeze nothing: they
  // share the swapped-in plan exactly like the initial shards share
  // the constructor's.
  config_.shard.plan = std::move(plan);
  return true;
}

obs::MetricsSnapshot ServeRouter::MergedMetrics() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<obs::MetricsSnapshot> parts;
  parts.reserve(shards_.size());
  for (const auto& [id, shard] : shards_) {
    parts.push_back(shard.registry->Snapshot());
  }
  return obs::MergeSnapshots(parts);
}

std::vector<std::pair<int, InferenceServerStats>> ServeRouter::ShardStats()
    const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::pair<int, InferenceServerStats>> stats;
  stats.reserve(shards_.size());
  for (const auto& [id, shard] : shards_) {
    stats.emplace_back(id, shard.server->stats());
  }
  return stats;
}

int ServeRouter::ShardFor(uint64_t user_id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return ring_.NodeFor(user_id);
}

std::vector<int> ServeRouter::shard_ids() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return ring_.Nodes();
}

int ServeRouter::num_shards() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return static_cast<int>(shards_.size());
}

InferenceServer* ServeRouter::shard(int shard_id) {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = shards_.find(shard_id);
  return it != shards_.end() ? it->second.server.get() : nullptr;
}

}  // namespace serve
}  // namespace sim2rec
