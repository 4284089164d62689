#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/context_agent.h"
#include "infer/kernels.h"
#include "infer/plan.h"
#include "nn/tensor.h"
#include "sadae/sadae.h"
#include "serve/checkpoint.h"
#include "serve/inference_server.h"
#include "serve/serve_router.h"
#include "util/rng.h"
#include "util/simd.h"

namespace sim2rec {
namespace infer {
namespace {

constexpr int kObsDim = 6;
constexpr int kActionDim = 2;

/// Float32 vs double tolerance for a multi-step recurrent trajectory.
constexpr double kTol = 1e-3;

bool BitwiseEqual(const nn::Tensor& a, const nn::Tensor& b) {
  if (!a.SameShape(b)) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<size_t>(a.size())) == 0;
}

/// Every policy head shape the serving stack can freeze: the paper's
/// full Sim2Rec head (LSTM + SADAE, state-only and state-action input
/// layouts), the GRU-cell ablation, DR-OSI (extractor without SADAE),
/// and the pure-MLP zero-shot baselines, plus a no-normalizer variant.
enum class Variant {
  kLstmSadae,
  kLstmSadaeStateAction,
  kGruSadae,
  kLstmPlain,
  kMlp,
  kNoNormalizer,
};

const Variant kAllVariants[] = {
    Variant::kLstmSadae, Variant::kLstmSadaeStateAction,
    Variant::kGruSadae,  Variant::kLstmPlain,
    Variant::kMlp,       Variant::kNoNormalizer,
};

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kLstmSadae:
      return "lstm+sadae(state)";
    case Variant::kLstmSadaeStateAction:
      return "lstm+sadae(state,action)";
    case Variant::kGruSadae:
      return "gru+sadae(state)";
    case Variant::kLstmPlain:
      return "lstm (DR-OSI)";
    case Variant::kMlp:
      return "mlp (no extractor)";
    case Variant::kNoNormalizer:
      return "lstm+sadae, no normalizer";
  }
  return "?";
}

struct AgentBundle {
  core::ContextAgentConfig config;
  std::unique_ptr<sadae::Sadae> sadae;
  std::unique_ptr<core::ContextAgent> agent;
};

AgentBundle MakeAgent(Variant v, uint64_t seed = 7) {
  AgentBundle bundle;
  core::ContextAgentConfig& config = bundle.config;
  config.obs_dim = kObsDim;
  config.action_dim = kActionDim;
  config.lstm_hidden = 8;
  config.f_hidden = {8};
  config.f_out = 4;
  config.policy_hidden = {16, 16};
  config.value_hidden = {16};
  config.action_bias = {0.5, -0.25};

  bool with_sadae = true;
  sadae::SadaeConfig sadae_config;
  sadae_config.state_dim = kObsDim;
  sadae_config.latent_dim = 3;
  sadae_config.encoder_hidden = {12};
  sadae_config.decoder_hidden = {12};

  switch (v) {
    case Variant::kLstmSadae:
      break;
    case Variant::kLstmSadaeStateAction:
      sadae_config.action_dim = kActionDim;
      break;
    case Variant::kGruSadae:
      config.extractor_cell =
          core::ContextAgentConfig::ExtractorCell::kGru;
      break;
    case Variant::kLstmPlain:
      with_sadae = false;
      break;
    case Variant::kMlp:
      config.use_extractor = false;
      with_sadae = false;
      break;
    case Variant::kNoNormalizer:
      config.normalize_observations = false;
      break;
  }

  Rng rng(seed);
  if (with_sadae) {
    bundle.sadae = std::make_unique<sadae::Sadae>(sadae_config, rng);
  }
  bundle.agent = std::make_unique<core::ContextAgent>(
      config, bundle.sadae.get(), rng);
  if (bundle.agent->normalizer() != nullptr) {
    // Non-trivial running statistics so normalization actually bites.
    Rng stats_rng(seed + 1);
    bundle.agent->normalizer()->Update(
        nn::Tensor::Randn(64, kObsDim, stats_rng, 0.3, 2.0));
  }
  return bundle;
}

/// Runs `steps` serving steps through both the double module path and
/// the frozen plan, from fresh sessions, feeding both the same
/// observations, and returns the max abs difference seen anywhere
/// (actions, values, group embedding, recurrent state).
double MaxTrajectoryDiff(const AgentBundle& bundle,
                         const InferencePlan& plan, int steps, int rows) {
  core::ContextAgent::ServeBatch ref_state =
      bundle.agent->InitialServeBatch(rows);
  core::ContextAgent::ServeBatch plan_state =
      bundle.agent->InitialServeBatch(rows);
  Workspace ws = plan.CreateWorkspace(rows);
  Rng rng(1234);
  double max_diff = 0.0;
  for (int t = 0; t < steps; ++t) {
    const nn::Tensor obs =
        nn::Tensor::Randn(rows, kObsDim, rng, 0.2, 1.0);
    const core::ContextAgent::ServeOutput ref =
        bundle.agent->ServeStep(obs, &ref_state);
    const core::ContextAgent::ServeOutput got =
        plan.ServeStep(obs, &plan_state, &ws);
    max_diff = std::max(max_diff, nn::MaxAbsDiff(ref.actions, got.actions));
    max_diff = std::max(max_diff, nn::MaxAbsDiff(ref.values, got.values));
    EXPECT_EQ(ref.v.empty(), got.v.empty());
    if (!ref.v.empty()) {
      max_diff = std::max(max_diff, nn::MaxAbsDiff(ref.v, got.v));
    }
    if (!ref_state.h.empty()) {
      max_diff =
          std::max(max_diff, nn::MaxAbsDiff(ref_state.h, plan_state.h));
    }
    if (!ref_state.c.empty()) {
      max_diff =
          std::max(max_diff, nn::MaxAbsDiff(ref_state.c, plan_state.c));
    }
    max_diff = std::max(max_diff, nn::MaxAbsDiff(ref_state.prev_actions,
                                                 plan_state.prev_actions));
  }
  return max_diff;
}

// ---------------------------------------------------------------------------
// Plan-vs-module parity (tentpole): the frozen float32 plan tracks the
// double nn::Module ServeStep within tolerance for every head shape.
// ---------------------------------------------------------------------------

TEST(PlanVsModule, ToleranceParityAcrossAllHeadShapes) {
  for (Variant v : kAllVariants) {
    SCOPED_TRACE(VariantName(v));
    AgentBundle bundle = MakeAgent(v);
    FreezeResult frozen = InferencePlan::Freeze(*bundle.agent);
    ASSERT_TRUE(frozen.ok()) << frozen.error;
    ASSERT_NE(frozen.plan, nullptr);
    EXPECT_GT(frozen.plan->memory_bytes(), 0u);
    EXPECT_FALSE(frozen.plan->Describe().empty());
    const double diff =
        MaxTrajectoryDiff(bundle, *frozen.plan, /*steps=*/6, /*rows=*/5);
    EXPECT_LT(diff, kTol) << VariantName(v);
    EXPECT_GT(diff, 0.0) << "suspiciously exact — is the plan actually "
                            "running in float32?";
  }
}

// ---------------------------------------------------------------------------
// Batched-vs-serial: like the double path, every row of a float32 batch
// is computed independently, so a K-row batch equals K singleton calls
// bitwise — batch composition can never leak across users.
// ---------------------------------------------------------------------------

TEST(PlanServeStep, BatchedMatchesSerialBitwise) {
  for (Variant v : {Variant::kLstmSadaeStateAction, Variant::kGruSadae,
                    Variant::kMlp}) {
    SCOPED_TRACE(VariantName(v));
    AgentBundle bundle = MakeAgent(v);
    FreezeResult frozen = InferencePlan::Freeze(*bundle.agent);
    ASSERT_TRUE(frozen.ok()) << frozen.error;
    const InferencePlan& plan = *frozen.plan;

    const int kRows = 8;
    Workspace batch_ws = plan.CreateWorkspace(kRows);
    Workspace serial_ws = plan.CreateWorkspace(1);
    core::ContextAgent::ServeBatch batch_state =
        bundle.agent->InitialServeBatch(kRows);
    std::vector<core::ContextAgent::ServeBatch> serial_states;
    for (int i = 0; i < kRows; ++i) {
      serial_states.push_back(bundle.agent->InitialServeBatch(1));
    }

    Rng rng(99);
    for (int t = 0; t < 4; ++t) {
      const nn::Tensor obs =
          nn::Tensor::Randn(kRows, kObsDim, rng, 0.0, 1.5);
      const core::ContextAgent::ServeOutput batched =
          plan.ServeStep(obs, &batch_state, &batch_ws);
      for (int i = 0; i < kRows; ++i) {
        const core::ContextAgent::ServeOutput alone =
            plan.ServeStep(obs.Row(i), &serial_states[i], &serial_ws);
        EXPECT_TRUE(BitwiseEqual(batched.actions.Row(i), alone.actions));
        EXPECT_TRUE(BitwiseEqual(batched.values.Row(i), alone.values));
        if (!batched.v.empty()) {
          EXPECT_TRUE(BitwiseEqual(batched.v.Row(i), alone.v));
        }
        if (!batch_state.h.empty()) {
          EXPECT_TRUE(
              BitwiseEqual(batch_state.h.Row(i), serial_states[i].h));
        }
        if (!batch_state.c.empty()) {
          EXPECT_TRUE(
              BitwiseEqual(batch_state.c.Row(i), serial_states[i].c));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SIMD-vs-scalar: AVX2 and scalar dispatch are bitwise-identical, both
// at the raw kernel level and through a full recurrent trajectory.
// ---------------------------------------------------------------------------

class SimdLevelGuard {
 public:
  ~SimdLevelGuard() { ResetSimdLevel(); }
};

TEST(Simd, KernelScalarAndAvx2BitwiseIdentical) {
  if (!Avx2Available()) {
    GTEST_SKIP() << "AVX2 kernels not compiled in or CPU unsupported";
  }
  Rng rng(42);
  const Act kActs[] = {Act::kIdentity, Act::kTanh, Act::kRelu,
                       Act::kSigmoid, Act::kSoftplus};
  // Sizes straddle every kernel regime: the 32-wide strip loop, the
  // 8-wide loop, and the scalar tail (m % 8 != 0), plus k == 1 edges.
  const int kDims[][3] = {{1, 1, 1},  {3, 7, 5},   {2, 4, 8},
                          {5, 9, 31}, {4, 16, 32}, {3, 10, 37},
                          {2, 33, 40}, {1, 6, 64}};
  for (const auto& dims : kDims) {
    const int n = dims[0], k = dims[1], m = dims[2];
    std::vector<float> x(static_cast<size_t>(n) * k);
    std::vector<float> w(static_cast<size_t>(k) * m);
    std::vector<float> b(m);
    for (float& f : x) f = static_cast<float>(rng.Normal()) * 2.0f;
    for (float& f : w) f = static_cast<float>(rng.Normal());
    for (float& f : b) f = static_cast<float>(rng.Normal());
    for (Act act : kActs) {
      std::vector<float> y_scalar(static_cast<size_t>(n) * m, -7.0f);
      std::vector<float> y_avx2(static_cast<size_t>(n) * m, +7.0f);
      GemmBiasActScalar(x.data(), w.data(), b.data(), y_scalar.data(), n,
                        k, m, act);
      GemmBiasActAvx2(x.data(), w.data(), b.data(), y_avx2.data(), n, k,
                      m, act);
      ASSERT_EQ(std::memcmp(y_scalar.data(), y_avx2.data(),
                            y_scalar.size() * sizeof(float)),
                0)
          << "n=" << n << " k=" << k << " m=" << m
          << " act=" << static_cast<int>(act);
      // Null bias = zero bias.
      GemmBiasActScalar(x.data(), w.data(), nullptr, y_scalar.data(), n,
                        k, m, act);
      GemmBiasActAvx2(x.data(), w.data(), nullptr, y_avx2.data(), n, k, m,
                      act);
      ASSERT_EQ(std::memcmp(y_scalar.data(), y_avx2.data(),
                            y_scalar.size() * sizeof(float)),
                0);
    }
  }
}

TEST(Simd, PlanTrajectoryIdenticalAcrossDispatchLevels) {
  if (!Avx2Available()) {
    GTEST_SKIP() << "AVX2 kernels not compiled in or CPU unsupported";
  }
  SimdLevelGuard guard;
  for (Variant v : kAllVariants) {
    SCOPED_TRACE(VariantName(v));
    AgentBundle bundle = MakeAgent(v);
    FreezeResult frozen = InferencePlan::Freeze(*bundle.agent);
    ASSERT_TRUE(frozen.ok()) << frozen.error;
    const InferencePlan& plan = *frozen.plan;

    const int kRows = 5;
    Workspace ws = plan.CreateWorkspace(kRows);
    core::ContextAgent::ServeBatch scalar_state =
        bundle.agent->InitialServeBatch(kRows);
    core::ContextAgent::ServeBatch avx2_state =
        bundle.agent->InitialServeBatch(kRows);
    Rng rng(5);
    for (int t = 0; t < 5; ++t) {
      const nn::Tensor obs =
          nn::Tensor::Randn(kRows, kObsDim, rng, 0.1, 1.0);
      ForceSimdLevel(SimdLevel::kScalar);
      const core::ContextAgent::ServeOutput scalar_out =
          plan.ServeStep(obs, &scalar_state, &ws);
      ForceSimdLevel(SimdLevel::kAvx2);
      const core::ContextAgent::ServeOutput avx2_out =
          plan.ServeStep(obs, &avx2_state, &ws);
      EXPECT_TRUE(BitwiseEqual(scalar_out.actions, avx2_out.actions));
      EXPECT_TRUE(BitwiseEqual(scalar_out.values, avx2_out.values));
      if (!scalar_out.v.empty()) {
        EXPECT_TRUE(BitwiseEqual(scalar_out.v, avx2_out.v));
      }
      if (!scalar_state.h.empty()) {
        EXPECT_TRUE(BitwiseEqual(scalar_state.h, avx2_state.h));
      }
      if (!scalar_state.c.empty()) {
        EXPECT_TRUE(BitwiseEqual(scalar_state.c, avx2_state.c));
      }
    }
  }
}

TEST(Simd, LevelNamesAndResolutionAreStable) {
  const SimdLevel level = ActiveSimdLevel();
  EXPECT_EQ(level, ActiveSimdLevel());  // cached, not re-resolved
  EXPECT_TRUE(level == SimdLevel::kScalar || level == SimdLevel::kAvx2);
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  if (!Avx2Available()) {
    EXPECT_EQ(level, SimdLevel::kScalar);
  }
}

// ---------------------------------------------------------------------------
// Freeze hardening: corrupted or shape-mismatched inputs must yield
// kInvalid with a diagnostic — never abort. Serving has no path
// without a plan: serve::FreezePlan returns null, a CheckpointWatcher
// swap reports kFreezeFailed and keeps the old model, and an
// InferenceServer refuses an agent it cannot freeze.
// ---------------------------------------------------------------------------

TEST(Freeze, NonFiniteParametersAreRejectedNotFatal) {
  AgentBundle bundle = MakeAgent(Variant::kLstmSadae);
  for (nn::Parameter* param : bundle.agent->TrainableParameters()) {
    param->value = nn::Tensor::Full(
        param->value.rows(), param->value.cols(),
        std::numeric_limits<double>::quiet_NaN());
  }
  const FreezeResult frozen = InferencePlan::Freeze(*bundle.agent);
  EXPECT_EQ(frozen.status, FreezeStatus::kInvalid);
  EXPECT_EQ(frozen.plan, nullptr);
  EXPECT_NE(frozen.error.find("non-finite"), std::string::npos)
      << frozen.error;
}

TEST(Freeze, ShapeMismatchedParametersAreRejectedNotFatal) {
  AgentBundle bundle = MakeAgent(Variant::kLstmSadae);
  for (nn::Parameter* param : bundle.agent->TrainableParameters()) {
    param->value = nn::Tensor::Ones(1, 1);
  }
  const FreezeResult frozen = InferencePlan::Freeze(*bundle.agent);
  EXPECT_EQ(frozen.status, FreezeStatus::kInvalid);
  EXPECT_EQ(frozen.plan, nullptr);
  EXPECT_FALSE(frozen.error.empty());
}

TEST(Freeze, Float32OverflowIsRejectedNotFatal) {
  AgentBundle bundle = MakeAgent(Variant::kMlp);
  for (nn::Parameter* param : bundle.agent->TrainableParameters()) {
    param->value = nn::Tensor::Full(param->value.rows(),
                                    param->value.cols(), 1e300);
  }
  const FreezeResult frozen = InferencePlan::Freeze(*bundle.agent);
  EXPECT_EQ(frozen.status, FreezeStatus::kInvalid);
  EXPECT_NE(frozen.error.find("float32"), std::string::npos)
      << frozen.error;
}

TEST(Freeze, CorruptNormalizerStatsAreRejectedNotFatal) {
  AgentBundle bundle = MakeAgent(Variant::kLstmPlain);
  ASSERT_NE(bundle.agent->normalizer(), nullptr);
  bundle.agent->normalizer()->Update(nn::Tensor::Full(
      4, kObsDim, std::numeric_limits<double>::infinity()));
  const FreezeResult frozen = InferencePlan::Freeze(*bundle.agent);
  EXPECT_EQ(frozen.status, FreezeStatus::kInvalid);
  EXPECT_NE(frozen.error.find("normalizer"), std::string::npos)
      << frozen.error;
}

TEST(Freeze, CheckpointFreezePlanEntryPoint) {
  serve::LoadedPolicy empty;
  EXPECT_EQ(serve::FreezePlan(empty), nullptr);  // no agent: soft null

  AgentBundle bundle = MakeAgent(Variant::kLstmSadae);
  serve::LoadedPolicy policy;
  policy.config = bundle.config;
  policy.sadae = std::move(bundle.sadae);
  policy.agent = std::move(bundle.agent);
  std::shared_ptr<const InferencePlan> plan = serve::FreezePlan(policy);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->obs_dim(), kObsDim);
  EXPECT_EQ(plan->action_dim(), kActionDim);
}

// ---------------------------------------------------------------------------
// Serving integration: servers answer within float32 tolerance of the
// double ContextAgent::ServeStep, and all shards of one router share one
// plan.
// ---------------------------------------------------------------------------

TEST(ServerPrecision, Float32TracksDoubleWithinTolerance) {
  AgentBundle bundle = MakeAgent(Variant::kLstmSadae);
  serve::InferenceServer server(bundle.agent.get(),
                                serve::InferenceServerConfig{});
  ASSERT_NE(server.plan(), nullptr);

  // The double reference threads each user's recurrent state through
  // ServeStep itself, exactly as the server's session store does.
  std::map<uint64_t, core::ContextAgent::ServeBatch> reference_state;
  Rng rng(17);
  for (int t = 0; t < 20; ++t) {
    const uint64_t user = 100 + (t % 4);  // 4 users, 5 steps each
    const nn::Tensor obs = nn::Tensor::Randn(1, kObsDim, rng, 0.2, 1.0);
    auto [it, fresh] = reference_state.try_emplace(user);
    if (fresh) it->second = bundle.agent->InitialServeBatch(1);
    const core::ContextAgent::ServeOutput ref =
        bundle.agent->ServeStep(obs, &it->second);
    const serve::ServeReply got = server.Act(user, obs);
    EXPECT_LT(nn::MaxAbsDiff(ref.actions, got.action), kTol);
    EXPECT_NEAR(ref.values(0, 0), got.value, kTol);
  }
}

TEST(ServerPrecision, RouterShardsShareOneFrozenPlan) {
  AgentBundle bundle = MakeAgent(Variant::kLstmSadaeStateAction);
  serve::ServeRouterConfig config;
  config.shard.max_batch_size = 8;
  serve::ServeRouter router(bundle.agent.get(), config, 3);

  const InferencePlan* shared = nullptr;
  for (int id : router.shard_ids()) {
    const InferencePlan* plan = router.shard(id)->plan();
    ASSERT_NE(plan, nullptr);
    if (shared == nullptr) shared = plan;
    EXPECT_EQ(plan, shared) << "shard " << id << " froze its own copy";
  }
  // Shards added after construction join the same plan.
  ASSERT_TRUE(router.AddShard(7));
  EXPECT_EQ(router.shard(7)->plan(), shared);

  // And the routed answers are sane end to end.
  Rng rng(3);
  for (uint64_t user = 0; user < 32; ++user) {
    const nn::Tensor obs = nn::Tensor::Randn(1, kObsDim, rng, 0.0, 1.0);
    const serve::ServeReply reply = router.Act(user, obs);
    EXPECT_FALSE(reply.action.HasNonFinite());
  }
}

}  // namespace
}  // namespace infer
}  // namespace sim2rec
