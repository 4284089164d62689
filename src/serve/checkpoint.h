#ifndef SIM2REC_SERVE_CHECKPOINT_H_
#define SIM2REC_SERVE_CHECKPOINT_H_

#include <memory>
#include <string>

#include "core/context_agent.h"
#include "infer/plan.h"
#include "sadae/sadae.h"

namespace sim2rec {
namespace serve {

/// Informational fields stored alongside the inference bundle (never
/// required for loading; unknown manifest keys are ignored).
struct CheckpointMetadata {
  std::string variant;       // e.g. "Sim2Rec", "DR-OSI"
  uint64_t seed = 0;         // training seed
  int train_iterations = 0;  // PPO iterations the bundle was trained for
  /// Monotonic rollout generation. A continuous-training loop bumps it
  /// on every export; serve::CheckpointWatcher hot-swaps to the highest
  /// generation it can validate and never to a lower one. 0 means "not
  /// part of a generation sequence" — such bundles load fine but are
  /// never hot-swap candidates. The key is optional: it is written only
  /// when non-zero.
  uint64_t generation = 0;
};

/// A checkpoint restored into a ready-to-serve agent. The SADAE (when
/// the bundle has one) is owned here because the ContextAgent only
/// borrows it.
struct LoadedPolicy {
  core::ContextAgentConfig config;
  CheckpointMetadata metadata;
  std::unique_ptr<sadae::Sadae> sadae;
  std::unique_ptr<core::ContextAgent> agent;
};

/// Why a load did not produce a policy — operationally distinct cases:
/// a kVersionUnsupported bundle is intact (upgrade the binary, don't
/// restore from backup); a kCorrupt one is damaged (restore from
/// backup, don't bother upgrading).
enum class LoadStatus {
  kOk = 0,
  /// No manifest at `dir` (not a checkpoint directory).
  kNotFound,
  /// The manifest declares a format version that is not this binary's
  /// version. The bundle may be perfectly valid.
  kVersionUnsupported,
  /// Anything else: unparsable manifest, implausible config, CRC
  /// mismatch, missing/truncated/corrupted weight files. A manifest
  /// missing the `crc32.<file>` line for any weight file it lists is
  /// kCorrupt too — the lines are mandatory, so their absence means the
  /// manifest was tampered with or truncated, not that the integrity
  /// check is optional (pinned in tests/serve_test.cc).
  kCorrupt,
};

struct LoadResult {
  LoadStatus status = LoadStatus::kCorrupt;
  /// Non-null exactly when status == kOk.
  std::unique_ptr<LoadedPolicy> policy;
};

/// Cheap manifest peek (version + generation only, no weight I/O) —
/// what the CheckpointWatcher scans candidate directories with before
/// committing to a full validated load.
struct CheckpointInfo {
  int version = 0;
  uint64_t generation = 0;
};

/// False when `dir` has no parsable manifest or no version line.
bool ReadCheckpointInfo(const std::string& dir, CheckpointInfo* info);

/// Saves a full inference bundle into directory `dir` (created if
/// missing):
///   manifest.txt    ContextAgentConfig + SadaeConfig + metadata as
///                   text key/value lines; doubles in hexfloat so the
///                   round trip is bit-exact; one `crc32.<file>` line
///                   per binary file below (CRC-32, zlib polynomial)
///   agent.bin       policy + value + extractor LSTM/GRU + f weights
///                   (nn::SaveModule container)
///   sadae.bin       SADAE weights (only when the agent has a SADAE)
///   normalizer.bin  observation-normalizer running stats (count, mean,
///                   M2), only when normalization is enabled
/// Returns false on any I/O failure.
///
/// Versioning (manifest line `sim2rec_checkpoint 3`): this binary reads
/// exactly the version it writes. Any other version loads as
/// kVersionUnsupported — never misread as corruption, never migrated.
/// Purely additive information rides on new keys instead of a version
/// bump: readers ignore unknown keys (the optional `generation` key is
/// the worked example). docs/ARCHITECTURE.md §3 lists how older
/// versions differed.
bool SaveCheckpoint(const std::string& dir, core::ContextAgent& agent,
                    const CheckpointMetadata& metadata = {});

/// Restores a bundle saved with SaveCheckpoint. The agent is rebuilt
/// from the manifest config, its parameters and normalizer statistics
/// are loaded bit-exactly, and the normalizer is frozen (deployment
/// never updates running stats). Never aborts; the status says *why* a
/// load failed (see LoadStatus).
LoadResult LoadCheckpointEx(const std::string& dir);

/// LoadCheckpointEx without the status: nullptr on any failure.
std::unique_ptr<LoadedPolicy> LoadCheckpoint(const std::string& dir);

/// Checkpoint-load-time entry point for serving: freezes the restored
/// agent into an immutable float32 infer::InferencePlan ready to hand
/// to InferenceServerConfig::plan / a ServeRouter. Returns null (with a
/// logged warning) when the agent fails freeze validation — never
/// aborts, so callers can refuse the policy and keep serving the old
/// one.
std::shared_ptr<const infer::InferencePlan> FreezePlan(
    const LoadedPolicy& policy);

}  // namespace serve
}  // namespace sim2rec

#endif  // SIM2REC_SERVE_CHECKPOINT_H_
