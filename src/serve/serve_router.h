#ifndef SIM2REC_SERVE_SERVE_ROUTER_H_
#define SIM2REC_SERVE_SERVE_ROUTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/context_agent.h"
#include "obs/metrics.h"
#include "serve/hash_ring.h"
#include "serve/inference_server.h"
#include "serve/policy_service.h"

namespace sim2rec {
namespace serve {

class TrajectoryLog;

struct ServeRouterConfig {
  /// Template configuration for every shard's InferenceServer. The
  /// router overrides `registry` (each shard gets its own registry, the
  /// stand-in for a per-process one) and `shard_id`, and fills a null
  /// `plan` by freezing the agent once for every shard to share;
  /// everything else — batching, F_exec guard, session caps — applies
  /// to each shard as-is, so `sessions.max_bytes` is a *per-shard* cap.
  InferenceServerConfig shard;
  /// Virtual nodes per shard on the consistent-hash ring.
  int virtual_nodes = HashRing::kDefaultVirtualNodes;
  /// Opt-in serve-side trajectory logging: when non-null, every shard —
  /// including ones the autoscaler adds later — appends its served
  /// (obs, action, value, step) tuples to log->OpenSink(shard_id).
  /// Overrides `shard.trajectory_sink`. The log's obs/action dims must
  /// match the agent's, and the log must outlive the router. Null (the
  /// default) records nothing.
  TrajectoryLog* trajectory_log = nullptr;
};

/// Consistent-hash front end over N InferenceServer shards — the
/// in-process skeleton of a sharded serving deployment (the ROADMAP's
/// cross-process transport item later swaps the direct calls for
/// sockets without touching the routing or handoff logic).
///
///  * Routing: Act(user_id, obs) forwards to the shard owning the user
///    on the ring. Because every shard serves the same checkpointed
///    agent and sessions are user-affine, replies are bitwise-identical
///    whatever the shard count (tested 1 vs 4 in tests/serve_test.cc).
///  * Online resharding: AddShard / RemoveShard wait for in-flight
///    requests to finish (drain), spill exactly the sessions whose
///    owner changed — ~1/N of users, the consistent-hashing guarantee —
///    and replay them into the new owner, recurrent state intact. No
///    session is lost and no user is served by two shards.
///  * Restart persistence: SaveSessions / LoadSessions spill every
///    shard's sessions to one binary snapshot and replay them on the
///    (possibly differently-sized) new topology.
///  * Telemetry: each shard records serve.* metrics into its own
///    registry; MergedMetrics() folds them into one unified view via
///    obs::MergeSnapshots.
///
/// Threading: Act/EndSession are safe from any number of client threads
/// and run concurrently (shared lock); topology changes and snapshot
/// I/O are exclusive and block until in-flight requests complete. The
/// agent must outlive the router.
class ServeRouter : public PolicyService {
 public:
  /// Starts with shards 0 .. initial_shards-1.
  ServeRouter(const core::ContextAgent* agent,
              const ServeRouterConfig& config, int initial_shards);
  ~ServeRouter() override;

  ServeRouter(const ServeRouter&) = delete;
  ServeRouter& operator=(const ServeRouter&) = delete;

  ServeReply Act(uint64_t user_id, const nn::Tensor& obs) override;
  void EndSession(uint64_t user_id) override;

  /// Adds a shard with the given id and migrates the ~1/(N+1) of
  /// resident sessions the ring reassigns to it. False when the id
  /// already exists.
  bool AddShard(int shard_id);
  /// Drains and removes a shard, replaying its sessions into their new
  /// owners. False when the id is absent or it is the last shard.
  bool RemoveShard(int shard_id);

  /// Spills every shard's resident sessions into one snapshot file
  /// (SessionStore::Save format). False on I/O failure.
  bool SaveSessions(const std::string& path) const;
  /// Replays a SaveSessions snapshot onto the current topology: each
  /// session goes to the shard that owns its user *now*, so the saved
  /// and current shard counts are free to differ. Staged — a corrupt or
  /// mismatched snapshot returns false and changes nothing.
  bool LoadSessions(const std::string& path);

  /// Checkpoint hot-swap: atomically replaces the served model on every
  /// shard while keeping every resident session. Takes the exclusive
  /// lock (the same drain barrier resharding uses), so no request is in
  /// flight anywhere during the swap and an Act() never observes a
  /// mixed topology. All-or-nothing: when the new agent is
  /// session-incompatible (different SessionDims or obs_dim — see
  /// InferenceServer::SwapModel) it returns false and every shard keeps
  /// serving the old model. Shards added after a successful swap (the
  /// autoscaler path) are built on the new agent and plan. `agent` must
  /// outlive the router (a CheckpointWatcher owns it); `plan` is the
  /// float32 plan frozen from it — a null plan returns false.
  bool SwapModel(const core::ContextAgent* agent,
                 std::shared_ptr<const infer::InferencePlan> plan);

  /// Unified view of all shard registries (obs::MergeSnapshots).
  obs::MetricsSnapshot MergedMetrics() const;
  /// Per-shard serving stats, shard id ascending.
  std::vector<std::pair<int, InferenceServerStats>> ShardStats() const;

  /// The shard currently owning a user (tests, diagnostics).
  int ShardFor(uint64_t user_id) const;
  std::vector<int> shard_ids() const;
  int num_shards() const;
  /// Direct access to one shard (tests; null when absent). The pointer
  /// is invalidated by RemoveShard of that id.
  InferenceServer* shard(int shard_id);

 private:
  struct Shard {
    // Registry is declared before the server so the server (whose hot
    // path records into it) is destroyed first.
    std::unique_ptr<obs::MetricsRegistry> registry;
    std::unique_ptr<InferenceServer> server;
  };

  Shard MakeShard(int shard_id) const;
  /// Moves sessions that `from` no longer owns to their ring owners.
  /// Caller holds the exclusive lock.
  void MigrateFrom(int from_id);

  const core::ContextAgent* agent_;
  ServeRouterConfig config_;

  // Act/EndSession hold this shared for the whole downstream call, so
  // an exclusive acquisition (reshard, snapshot I/O) doubles as the
  // drain barrier: once granted, no request is in flight anywhere.
  mutable std::shared_mutex mutex_;
  HashRing ring_;
  std::map<int, Shard> shards_;
};

}  // namespace serve
}  // namespace sim2rec

#endif  // SIM2REC_SERVE_SERVE_ROUTER_H_
