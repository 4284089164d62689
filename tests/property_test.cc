// Property-style parameterized sweeps over the numeric substrate and
// the RL plumbing: invariants that must hold for all shapes/settings,
// not just the hand-picked cases of the unit suites.

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>
#include <vector>

#include "nn/distributions.h"
#include "nn/lstm.h"
#include "nn/ops.h"
#include "rl/rollout.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace sim2rec {
namespace {

using nn::Tensor;
using nn::Var;
using ::sim2rec::testing::GradCheck;

// ---------------------------------------------------------------------
// MatMul shapes: C = A * B must match the naive definition for a sweep
// of shapes, including degenerate 1-row/1-col cases and every tail of
// the AVX2 register tiles (4 rows x 8 columns). The naive loop sums in
// the kernels' order (+0.0, then ascending p), so the match is exact on
// either dispatch level.
struct MatMulShape {
  int n, k, m;
};

class MatMulShapeTest : public ::testing::TestWithParam<MatMulShape> {};

TEST_P(MatMulShapeTest, MatchesNaiveDefinition) {
  const MatMulShape shape = GetParam();
  Rng rng(shape.n * 100 + shape.k * 10 + shape.m);
  const Tensor a = Tensor::Randn(shape.n, shape.k, rng);
  const Tensor b = Tensor::Randn(shape.k, shape.m, rng);
  const Tensor c = MatMul(a, b);
  // Transposed variants on the same operands.
  const Tensor c_trans_a = nn::MatMulTransA(a.Transposed(), b);
  const Tensor c_trans_b = nn::MatMulTransB(a, b.Transposed());
  ASSERT_EQ(c.rows(), shape.n);
  ASSERT_EQ(c.cols(), shape.m);
  ASSERT_TRUE(c_trans_a.SameShape(c));
  ASSERT_TRUE(c_trans_b.SameShape(c));
  for (int i = 0; i < shape.n; ++i) {
    for (int j = 0; j < shape.m; ++j) {
      double expected = 0.0;
      for (int p = 0; p < shape.k; ++p) expected += a(i, p) * b(p, j);
      ASSERT_EQ(c(i, j), expected);
      ASSERT_EQ(c_trans_a(i, j), expected);
      ASSERT_EQ(c_trans_b(i, j), expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulShapeTest,
    ::testing::Values(MatMulShape{1, 1, 1}, MatMulShape{1, 7, 3},
                      MatMulShape{5, 1, 4}, MatMulShape{4, 6, 1},
                      MatMulShape{8, 8, 8}, MatMulShape{3, 17, 5},
                      MatMulShape{3, 5, 7}, MatMulShape{4, 8, 8},
                      MatMulShape{5, 9, 9}, MatMulShape{32, 48, 64},
                      MatMulShape{33, 47, 65}));

// ---------------------------------------------------------------------
// LSTM gradient check across hidden sizes and unroll lengths.
struct LstmCase {
  int hidden;
  int steps;
};

class LstmGradTest : public ::testing::TestWithParam<LstmCase> {};

TEST_P(LstmGradTest, UnrollGradientMatchesFiniteDifferences) {
  const LstmCase test_case = GetParam();
  Rng rng(test_case.hidden * 31 + test_case.steps);
  nn::LstmCell lstm("l", 3, test_case.hidden, rng);
  auto f = [&lstm, &test_case](nn::Tape& tape, Var x0) {
    nn::LstmState s = lstm.InitialState(tape, 2);
    s = lstm.Forward(tape, x0, s);
    Var filler = tape.Constant(Tensor::Full(2, 3, 0.1));
    for (int t = 1; t < test_case.steps; ++t) {
      s = lstm.Forward(tape, filler, s);
    }
    return nn::SumV(nn::SquareV(s.h));
  };
  Rng input_rng(7);
  EXPECT_LT(GradCheck(f, Tensor::Randn(2, 3, input_rng)), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Cases, LstmGradTest,
                         ::testing::Values(LstmCase{2, 1}, LstmCase{4, 3},
                                           LstmCase{8, 5},
                                           LstmCase{3, 8}));

// ---------------------------------------------------------------------
// Gaussian KL: for a sweep of parameter pairs, KL >= 0, and KL matches
// a Monte-Carlo estimate E_p[log p - log q].
struct KlCase {
  double mp, sp, mq, sq;
};

class GaussianKlTest : public ::testing::TestWithParam<KlCase> {};

TEST_P(GaussianKlTest, MatchesMonteCarlo) {
  const KlCase c = GetParam();
  const Tensor mp = Tensor::Full(1, 1, c.mp);
  const Tensor sp = Tensor::Full(1, 1, c.sp);
  const Tensor mq = Tensor::Full(1, 1, c.mq);
  const Tensor sq = Tensor::Full(1, 1, c.sq);
  const double kl = nn::GaussianKlValue(mp, sp, mq, sq);
  EXPECT_GE(kl, -1e-12);

  Rng rng(99);
  double mc = 0.0;
  const int n = 200000;
  auto log_pdf = [](double x, double m, double s) {
    const double z = (x - m) / s;
    return -0.5 * z * z - std::log(s) - 0.5 * std::log(2 * M_PI);
  };
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(c.mp, c.sp);
    mc += log_pdf(x, c.mp, c.sp) - log_pdf(x, c.mq, c.sq);
  }
  mc /= n;
  EXPECT_NEAR(kl, mc, 0.05 * std::max(1.0, kl));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GaussianKlTest,
    ::testing::Values(KlCase{0, 1, 0, 1}, KlCase{1, 1, 0, 1},
                      KlCase{0, 2, 0, 1}, KlCase{0, 0.5, 0, 1},
                      KlCase{2, 0.7, -1, 1.3}));

// ---------------------------------------------------------------------
// GAE properties over gamma/lambda sweeps:
//  * with lambda = 1, gamma = 1 and zero values, the advantage equals
//    the reward-to-go;
//  * advantages are invariant to a constant shift of values when
//    lambda = 1 and gamma = 1 except through the bootstrap/terminal
//    handling (we use a terminal rollout so the property is exact).
struct GaeCase {
  double gamma;
  double lambda;
};

class GaeSweepTest : public ::testing::TestWithParam<GaeCase> {};

rl::Rollout MakeTerminalRollout(int t_max, uint64_t seed) {
  rl::Rollout rollout;
  rollout.num_steps = t_max;
  rollout.num_users = 1;
  Rng rng(seed);
  for (int t = 0; t < t_max; ++t) {
    rollout.rewards.push_back({rng.Uniform(-1.0, 1.0)});
    rollout.dones.push_back(
        {static_cast<uint8_t>(t == t_max - 1 ? 1 : 0)});
    rollout.values.push_back({rng.Uniform(-1.0, 1.0)});
    rollout.log_probs.push_back({0.0});
  }
  rollout.last_values = {rng.Uniform(-1.0, 1.0)};
  return rollout;
}

TEST_P(GaeSweepTest, ReturnsEqualAdvantagePlusValue) {
  const GaeCase c = GetParam();
  rl::Rollout rollout = MakeTerminalRollout(6, 11);
  rl::ComputeGae(&rollout, c.gamma, c.lambda);
  for (int t = 0; t < rollout.num_steps; ++t) {
    EXPECT_NEAR(rollout.returns[t][0],
                rollout.advantages[t][0] + rollout.values[t][0], 1e-12);
  }
}

TEST(GaeProperty, LambdaOneGammaOneIsRewardToGo) {
  rl::Rollout rollout = MakeTerminalRollout(5, 13);
  rl::ComputeGae(&rollout, 1.0, 1.0);
  for (int t = 0; t < rollout.num_steps; ++t) {
    double reward_to_go = 0.0;
    for (int s = t; s < rollout.num_steps; ++s)
      reward_to_go += rollout.rewards[s][0];
    EXPECT_NEAR(rollout.returns[t][0], reward_to_go, 1e-12);
  }
}

TEST_P(GaeSweepTest, TerminalEpisodeIgnoresBootstrapValue) {
  const GaeCase c = GetParam();
  rl::Rollout a = MakeTerminalRollout(4, 17);
  rl::Rollout b = a;
  b.last_values = {a.last_values[0] + 100.0};
  rl::ComputeGae(&a, c.gamma, c.lambda);
  rl::ComputeGae(&b, c.gamma, c.lambda);
  for (int t = 0; t < a.num_steps; ++t) {
    EXPECT_NEAR(a.advantages[t][0], b.advantages[t][0], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, GaeSweepTest,
    ::testing::Values(GaeCase{1.0, 1.0}, GaeCase{0.99, 0.95},
                      GaeCase{0.9, 0.8}, GaeCase{0.5, 0.0},
                      GaeCase{1.0, 0.5}));

// ---------------------------------------------------------------------
// Softmax/entropy invariants across logit scales: entropy decreases as
// logits sharpen; log-probs are <= 0 and normalize.
class EntropyScaleTest : public ::testing::TestWithParam<double> {};

TEST_P(EntropyScaleTest, EntropyMonotoneInTemperature) {
  const double scale = GetParam();
  Rng rng(5);
  const Tensor base = Tensor::Randn(4, 6, rng);
  nn::Tape tape;
  nn::CategoricalDist soft{tape.Constant(base * scale)};
  nn::CategoricalDist sharp{tape.Constant(base * (scale * 2.0))};
  const Tensor h_soft = soft.Entropy().value();
  const Tensor h_sharp = sharp.Entropy().value();
  for (int r = 0; r < 4; ++r) {
    EXPECT_GE(h_soft(r, 0), h_sharp(r, 0) - 1e-9);
    EXPECT_GE(h_soft(r, 0), 0.0);
    EXPECT_LE(h_soft(r, 0), std::log(6.0) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, EntropyScaleTest,
                         ::testing::Values(0.1, 0.5, 1.0, 3.0));

// ---------------------------------------------------------------------
// Product-of-experts pooling sanity at the op level: combining K
// identical per-pair Gaussian posteriors multiplies precision by K.
TEST(ProductOfGaussians, PrecisionAddsAcrossIdenticalExperts) {
  // Emulates Sadae::PoolPosterior arithmetic with plain ops.
  for (int experts : {1, 2, 4, 8}) {
    nn::Tape tape;
    const double log_std = -0.3;
    Var log_std_rows =
        tape.Constant(Tensor::Full(experts, 3, log_std));
    Var mu_rows = tape.Constant(Tensor::Full(experts, 3, 0.7));
    Var precision_i = nn::ExpV(nn::ScaleV(log_std_rows, -2.0));
    Var precision = nn::ScaleV(nn::ColMeanV(precision_i),
                               static_cast<double>(experts));
    Var weighted = nn::ScaleV(nn::ColMeanV(nn::MulV(precision_i,
                                                    mu_rows)),
                              static_cast<double>(experts));
    Var mean = nn::DivV(weighted, precision);
    const double expected_precision =
        experts * std::exp(-2.0 * log_std);
    EXPECT_NEAR(precision.value()(0, 0), expected_precision, 1e-10);
    EXPECT_NEAR(mean.value()(0, 1), 0.7, 1e-10);
  }
}

// ---------------------------------------------------------------------
// Counter-based RNG substreams (the load driver's per-session and
// per-tick streams). Three properties carry the thread-count-invariance
// proof: substreams are pure in (seed, id); drawing from one stream
// never perturbs another; and distinct streams never collide over long
// runs.

class SubstreamSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SubstreamSeedTest, ReproducibleAcrossConstructionOrderAndDraws) {
  const uint64_t seed = GetParam();

  // Reference: substream 5 derived from a pristine generator.
  Rng pristine(seed);
  Rng reference = pristine.Substream(5);
  std::vector<uint64_t> expected(64);
  for (auto& v : expected) v = reference.NextU64();

  // Same substream derived after heavy parent use and after creating
  // other substreams in a different order.
  Rng used(seed);
  for (int i = 0; i < 1000; ++i) used.NextU64();
  Rng other_a = used.Substream(9);
  Rng other_b = used.Substream(0);
  other_a.NextU64();
  other_b.NextU64();
  Rng late = used.Substream(5);
  for (uint64_t v : expected) EXPECT_EQ(late.NextU64(), v);

  // Split(), by contrast, must depend on parent state (it is the
  // stateful sibling — this guards against Substream aliasing it).
  Rng fresh(seed);
  Rng split_child = fresh.Split(5);
  EXPECT_NE(split_child.NextU64(), expected[0]);
}

TEST_P(SubstreamSeedTest, DrawInterleavingDoesNotCoupleStreams) {
  const uint64_t seed = GetParam();

  // Isolated: drain stream 2 alone, then stream 7 alone.
  std::vector<uint64_t> isolated_2(256), isolated_7(256);
  {
    Rng root(seed);
    Rng s2 = root.Substream(2);
    for (auto& v : isolated_2) v = s2.NextU64();
    Rng s7 = root.Substream(7);
    for (auto& v : isolated_7) v = s7.NextU64();
  }
  // Interleaved: alternate draws between the two streams.
  {
    Rng root(seed);
    Rng s2 = root.Substream(2);
    Rng s7 = root.Substream(7);
    for (int i = 0; i < 256; ++i) {
      EXPECT_EQ(s2.NextU64(), isolated_2[i]);
      EXPECT_EQ(s7.NextU64(), isolated_7[i]);
    }
  }
}

TEST_P(SubstreamSeedTest, StreamsPairwiseNonOverlappingOver1e5Draws) {
  const uint64_t seed = GetParam();
  constexpr int kStreams = 5;
  constexpr int kDraws = 100000;

  Rng root(seed);
  std::unordered_set<uint64_t> seen;
  seen.reserve(static_cast<size_t>(kStreams) * kDraws * 2);
  for (int s = 0; s < kStreams; ++s) {
    Rng stream = root.Substream(s);
    for (int d = 0; d < kDraws; ++d) {
      // Any duplicate across (or within) streams would mean two
      // substreams walked the same xoshiro orbit segment. For 5e5
      // draws of 64-bit values the birthday collision probability is
      // ~7e-9, so a single repeat is a real overlap, not chance.
      EXPECT_TRUE(seen.insert(stream.NextU64()).second)
          << "overlap in stream " << s << " draw " << d;
    }
  }
}

TEST(RngSubstream, NestedSubstreamsAreIndependentOfSiblings) {
  // Substreams of substreams (shard -> sub-shard) must also be pure in
  // the lineage, not in sibling activity.
  Rng root(99);
  Rng shard3 = root.Substream(3);
  Rng expected = shard3.Substream(1);
  const uint64_t want = expected.NextU64();

  Rng root2(99);
  Rng other = root2.Substream(4);
  for (int i = 0; i < 100; ++i) other.NextU64();
  Rng shard3_again = root2.Substream(3);
  shard3_again.NextU64();  // parent draws must not matter either
  Rng nested = shard3_again.Substream(1);
  EXPECT_EQ(nested.NextU64(), want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubstreamSeedTest,
                         ::testing::Values(0ULL, 1ULL, 42ULL,
                                           0xdeadbeefULL,
                                           0xffffffffffffffffULL));

}  // namespace
}  // namespace sim2rec
