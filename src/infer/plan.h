#ifndef SIM2REC_INFER_PLAN_H_
#define SIM2REC_INFER_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "core/context_agent.h"
#include "infer/kernels.h"

namespace sim2rec {
namespace infer {

class InferencePlan;

enum class FreezeStatus {
  kOk,
  /// The agent's module graph failed validation (missing submodule,
  /// shape-inconsistent or non-finite parameters). Freeze never aborts
  /// on bad input — callers refuse the agent and keep serving the
  /// plan they have.
  kInvalid,
};

struct FreezeResult {
  FreezeStatus status = FreezeStatus::kInvalid;
  std::string error;  // set when status != kOk
  std::shared_ptr<const InferencePlan> plan;

  bool ok() const { return status == FreezeStatus::kOk; }
};

/// Pre-sized scratch for InferencePlan::ServeStep. One workspace serves
/// one thread; creation allocates everything ServeStep needs, so the hot
/// path itself never touches the allocator. Obtain via
/// InferencePlan::CreateWorkspace.
class Workspace {
 public:
  int max_rows() const { return max_rows_; }

 private:
  friend class InferencePlan;
  int max_rows_ = 0;
  std::vector<float> obs_raw, obs_n, prev_a, set_in, v, fv, rnn_in, xh,
      gates, xn, hn, h, c, ctx, actions, values, scratch_a, scratch_b;
};

/// A core::ContextAgent frozen for serving: every weight the deterministic
/// ServeStep path touches, packed at checkpoint-load time into contiguous
/// row-major float32 buffers, specialized to the agent's exact layer
/// shapes. No tape, no nn::Tensor temporaries, no allocation per step —
/// just fused GEMM+activation kernels (AVX2 with runtime dispatch, scalar
/// fallback; see kernels.h).
///
/// The plan is immutable after Freeze and safe to share: one
/// shared_ptr<const InferencePlan> is handed to every serve::
/// InferenceServer shard, so N shards hold one copy of the weights.
/// Mutable per-call state lives in the caller-owned Workspace.
///
/// Numerics: float32 throughout, so outputs track the double ServeStep to
/// roughly 1e-4 relative (tolerance-checked in tests/infer_test.cc), and
/// rows stay batch-composition-independent just like the double path —
/// every kernel computes each row independently in a fixed order.
class InferencePlan {
 public:
  /// Packs `agent` (and its attached SADAE / normalizer) into a plan.
  /// Validates shapes and finiteness of every tensor it copies; on any
  /// inconsistency returns kInvalid with a diagnostic instead of
  /// aborting. The agent is only read — the returned plan holds copies
  /// and does not reference it afterwards.
  static FreezeResult Freeze(const core::ContextAgent& agent);

  /// Scratch sized for batches of up to `max_rows` rows.
  Workspace CreateWorkspace(int max_rows) const;

  /// Drop-in float32 replacement for core::ContextAgent::ServeStep: same
  /// inputs, same outputs (double tensors at the boundary), same state
  /// threading. `ws` must come from CreateWorkspace on this plan and
  /// obs.rows() must not exceed ws->max_rows().
  core::ContextAgent::ServeOutput ServeStep(
      const nn::Tensor& obs, core::ContextAgent::ServeBatch* state,
      Workspace* ws) const;

  int obs_dim() const { return obs_dim_; }
  int action_dim() const { return action_dim_; }
  /// Total bytes of packed weights held by this plan (what sharding N
  /// ways would duplicate without the shared_ptr handoff).
  size_t memory_bytes() const;
  /// One-line human-readable summary for logs.
  std::string Describe() const;

 private:
  InferencePlan() = default;

  struct DenseLayer {
    int in = 0;
    int out = 0;
    Act act = Act::kIdentity;
    std::vector<float> w;  // [in x out] row-major
    std::vector<float> b;  // [out]
  };
  struct MlpPlan {
    int in = 0;
    int out = 0;
    std::vector<DenseLayer> layers;
  };

  /// Runs a packed MLP over n rows; `in` and `out` must not alias the
  /// workspace ping/pong scratch.
  void RunMlp(const MlpPlan& mlp, const float* in, int n, float* out,
              Workspace* ws) const;

  int obs_dim_ = 0;
  int action_dim_ = 0;
  bool use_extractor_ = false;
  bool has_lstm_ = false;  // else GRU when use_extractor_
  bool has_sadae_ = false;
  int lstm_hidden_ = 0;
  int f_out_ = 0;
  int latent_dim_ = 0;
  int sadae_input_dim_ = 0;
  int rnn_in_dim_ = 0;
  int ctx_dim_ = 0;
  int max_mlp_width_ = 0;

  bool has_normalizer_ = false;
  float norm_clip_ = 0.0f;
  std::vector<float> norm_mean_;     // [obs_dim]
  std::vector<float> norm_inv_std_;  // [obs_dim]

  MlpPlan encoder_;  // SADAE mean head (last layer truncated to latent)
  MlpPlan f_;
  MlpPlan policy_;
  MlpPlan value_;

  std::vector<float> lstm_w_;  // [(rnn_in+hidden) x 4*hidden], i,f,g,o
  std::vector<float> lstm_b_;  // [4*hidden]
  std::vector<float> gru_w_rz_;  // [(rnn_in+hidden) x 2*hidden]
  std::vector<float> gru_b_rz_;  // [2*hidden]
  std::vector<float> gru_w_xn_;  // [rnn_in x hidden]
  std::vector<float> gru_w_hn_;  // [hidden x hidden]
  std::vector<float> gru_b_n_;   // [hidden]

  std::vector<float> action_bias_;  // [action_dim]
};

}  // namespace infer
}  // namespace sim2rec

#endif  // SIM2REC_INFER_PLAN_H_
