#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "nn/ops.h"
#include "nn/tape.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace sim2rec {
namespace nn {
namespace {

using ::sim2rec::testing::GradCheck;

constexpr double kTol = 1e-5;

Tensor RandomInput(int rows, int cols, uint64_t seed, double lo = -1.5,
                   double hi = 1.5) {
  Rng rng(seed);
  return Tensor::Rand(rows, cols, rng, lo, hi);
}

TEST(Autodiff, MatMulGradient) {
  Rng rng(1);
  const Tensor b = Tensor::Randn(4, 3, rng);
  auto f = [&b](Tape& tape, Var x) {
    return SumV(SquareV(MatMulV(x, tape.Constant(b))));
  };
  EXPECT_LT(GradCheck(f, RandomInput(2, 4, 2)), kTol);
}

TEST(Autodiff, MatMulGradientRightOperand) {
  Rng rng(3);
  const Tensor a = Tensor::Randn(3, 4, rng);
  auto f = [&a](Tape& tape, Var x) {
    return SumV(SquareV(MatMulV(tape.Constant(a), x)));
  };
  EXPECT_LT(GradCheck(f, RandomInput(4, 2, 4)), kTol);
}

TEST(Autodiff, AddSubMulGradients) {
  Rng rng(5);
  const Tensor other = Tensor::Randn(3, 3, rng);
  auto f_add = [&other](Tape& tape, Var x) {
    return SumV(SquareV(AddV(x, tape.Constant(other))));
  };
  auto f_sub = [&other](Tape& tape, Var x) {
    return SumV(SquareV(SubV(tape.Constant(other), x)));
  };
  auto f_mul = [&other](Tape& tape, Var x) {
    return SumV(MulV(x, MulV(x, tape.Constant(other))));
  };
  EXPECT_LT(GradCheck(f_add, RandomInput(3, 3, 6)), kTol);
  EXPECT_LT(GradCheck(f_sub, RandomInput(3, 3, 7)), kTol);
  EXPECT_LT(GradCheck(f_mul, RandomInput(3, 3, 8)), kTol);
}

TEST(Autodiff, DivGradient) {
  auto f = [](Tape& tape, Var x) {
    Var denom = AddScalarV(SquareV(x), 1.0);  // bounded away from 0
    return SumV(DivV(tape.Constant(Tensor::Ones(2, 3)), denom));
  };
  EXPECT_LT(GradCheck(f, RandomInput(2, 3, 9)), kTol);
}

TEST(Autodiff, ScalarOps) {
  auto f = [](Tape&, Var x) {
    return SumV(AddScalarV(ScaleV(NegV(x), 2.5), 0.75));
  };
  EXPECT_LT(GradCheck(f, RandomInput(2, 2, 10)), kTol);
}

TEST(Autodiff, RowBroadcastGradient) {
  auto f_bias = [](Tape& tape, Var x) {
    Var m = tape.Constant(RandomInput(4, 3, 11));
    return SumV(SquareV(AddRowBroadcastV(m, x)));
  };
  EXPECT_LT(GradCheck(f_bias, RandomInput(1, 3, 12)), kTol);

  auto f_matrix = [](Tape& tape, Var x) {
    Var row = tape.Constant(RandomInput(1, 3, 13));
    return SumV(SquareV(AddRowBroadcastV(x, row)));
  };
  EXPECT_LT(GradCheck(f_matrix, RandomInput(4, 3, 14)), kTol);
}

TEST(Autodiff, TileRowsGradient) {
  auto f = [](Tape& tape, Var x) {
    Var tiled = TileRowsV(x, 5);
    Var weights = tape.Constant(RandomInput(5, 3, 15));
    return SumV(MulV(SquareV(tiled), weights));
  };
  EXPECT_LT(GradCheck(f, RandomInput(1, 3, 16)), kTol);
}

struct UnaryCase {
  const char* name;
  Var (*op)(Var);
  double lo;
  double hi;
};

// Prints a case by its name. The default byte dump would put the addresses
// of `name` and `op`, which change from run to run, into the test names that
// gtest_discover_tests registers with CTest.
void PrintTo(const UnaryCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

class UnaryGradTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradTest, MatchesFiniteDifferences) {
  const UnaryCase& test_case = GetParam();
  auto f = [&test_case](Tape&, Var x) {
    return SumV(test_case.op(x));
  };
  EXPECT_LT(GradCheck(f, RandomInput(3, 4, 17, test_case.lo,
                                     test_case.hi)),
            kTol)
      << test_case.name;
  // Composed with a square to exercise chained gradients.
  auto g = [&test_case](Tape&, Var x) {
    return SumV(SquareV(test_case.op(x)));
  };
  EXPECT_LT(GradCheck(g, RandomInput(2, 5, 18, test_case.lo,
                                     test_case.hi)),
            kTol)
      << test_case.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOps, UnaryGradTest,
    ::testing::Values(
        UnaryCase{"sigmoid", &SigmoidV, -3.0, 3.0},
        UnaryCase{"tanh", &TanhV, -3.0, 3.0},
        UnaryCase{"exp", &ExpV, -2.0, 2.0},
        UnaryCase{"log", &LogV, 0.3, 4.0},
        UnaryCase{"softplus", &SoftplusV, -4.0, 4.0},
        UnaryCase{"square", &SquareV, -2.0, 2.0},
        UnaryCase{"sqrt", &SqrtV, 0.3, 4.0}));

TEST(Autodiff, ReluGradientAwayFromKink) {
  auto f = [](Tape&, Var x) { return SumV(SquareV(ReluV(x))); };
  // Sample away from 0 to avoid the nondifferentiable point.
  Tensor x0 = RandomInput(3, 3, 19, 0.5, 2.0);
  x0(0, 0) = -1.0;
  x0(1, 1) = -0.5;
  EXPECT_LT(GradCheck(f, x0), kTol);
}

TEST(Autodiff, ClipGradient) {
  auto f = [](Tape&, Var x) {
    return SumV(SquareV(ClipV(x, -0.5, 0.5)));
  };
  // Values chosen away from the clip boundaries.
  Tensor x0(2, 3, {-1.2, -0.2, 0.1, 0.4, 0.9, -0.45});
  EXPECT_LT(GradCheck(f, x0), kTol);
  // Clipped entries must have zero gradient.
  Tape tape;
  Var x = tape.Input(x0);
  tape.Backward(SumV(ClipV(x, -0.5, 0.5)));
  EXPECT_DOUBLE_EQ(tape.grad(x)(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(tape.grad(x)(0, 1), 1.0);
}

TEST(Autodiff, MinMaxGradients) {
  const Tensor other(2, 2, {0.0, 0.5, -0.5, 1.0});
  auto f_min = [&other](Tape& tape, Var x) {
    return SumV(SquareV(MinV(x, tape.Constant(other))));
  };
  auto f_max = [&other](Tape& tape, Var x) {
    return SumV(SquareV(MaxV(x, tape.Constant(other))));
  };
  // Away from ties.
  const Tensor x0(2, 2, {0.3, -0.2, 0.7, 0.2});
  EXPECT_LT(GradCheck(f_min, x0), kTol);
  EXPECT_LT(GradCheck(f_max, x0), kTol);
}

TEST(Autodiff, ReductionGradients) {
  auto f_sum = [](Tape&, Var x) { return SumV(SquareV(x)); };
  auto f_mean = [](Tape&, Var x) { return MeanV(SquareV(x)); };
  auto f_rowsum = [](Tape&, Var x) {
    return SumV(SquareV(RowSumV(x)));
  };
  auto f_rowmean = [](Tape&, Var x) {
    return SumV(SquareV(RowMeanV(x)));
  };
  auto f_colmean = [](Tape&, Var x) {
    return SumV(SquareV(ColMeanV(x)));
  };
  EXPECT_LT(GradCheck(f_sum, RandomInput(3, 4, 20)), kTol);
  EXPECT_LT(GradCheck(f_mean, RandomInput(3, 4, 21)), kTol);
  EXPECT_LT(GradCheck(f_rowsum, RandomInput(3, 4, 22)), kTol);
  EXPECT_LT(GradCheck(f_rowmean, RandomInput(3, 4, 23)), kTol);
  EXPECT_LT(GradCheck(f_colmean, RandomInput(3, 4, 24)), kTol);
}

TEST(Autodiff, RowLogSumExpGradient) {
  auto f = [](Tape&, Var x) { return SumV(SquareV(RowLogSumExpV(x))); };
  EXPECT_LT(GradCheck(f, RandomInput(3, 5, 25, -2.0, 2.0)), kTol);
}

TEST(Autodiff, RowLogSumExpStableForLargeValues) {
  Tape tape;
  Tensor big(1, 3, {1000.0, 1000.0, 1000.0});
  Var lse = RowLogSumExpV(tape.Constant(big));
  EXPECT_NEAR(lse.value()(0, 0), 1000.0 + std::log(3.0), 1e-9);
}

TEST(Autodiff, ConcatAndSliceGradients) {
  auto f_cols = [](Tape& tape, Var x) {
    Var other = tape.Constant(RandomInput(3, 2, 26));
    Var cat = ConcatColsV({x, other, x});
    return SumV(SquareV(cat));
  };
  EXPECT_LT(GradCheck(f_cols, RandomInput(3, 2, 27)), kTol);

  auto f_rows = [](Tape& tape, Var x) {
    Var other = tape.Constant(RandomInput(2, 3, 28));
    Var cat = ConcatRowsV({other, x});
    return SumV(SquareV(cat));
  };
  EXPECT_LT(GradCheck(f_rows, RandomInput(2, 3, 29)), kTol);

  auto f_slice = [](Tape&, Var x) {
    return SumV(SquareV(SliceColsV(x, 1, 3)));
  };
  EXPECT_LT(GradCheck(f_slice, RandomInput(2, 4, 30)), kTol);

  auto f_slice_rows = [](Tape&, Var x) {
    return SumV(SquareV(SliceRowsV(x, 1, 3)));
  };
  EXPECT_LT(GradCheck(f_slice_rows, RandomInput(4, 2, 31)), kTol);
}

TEST(Autodiff, PickPerRowGradient) {
  const std::vector<int> idx = {2, 0, 1};
  auto f = [&idx](Tape&, Var x) {
    return SumV(SquareV(PickPerRowV(x, idx)));
  };
  EXPECT_LT(GradCheck(f, RandomInput(3, 3, 32)), kTol);
}

TEST(Autodiff, BroadcastScalarGradient) {
  auto f = [](Tape& tape, Var x) {
    Var s = MeanV(x);
    Var b = BroadcastScalarV(s, 3, 2);
    Var w = tape.Constant(RandomInput(3, 2, 33));
    return SumV(MulV(b, w));
  };
  EXPECT_LT(GradCheck(f, RandomInput(2, 2, 34)), kTol);
}

TEST(Autodiff, SoftmaxRowsSumToOne) {
  Tape tape;
  Var x = tape.Constant(RandomInput(4, 6, 35, -3.0, 3.0));
  Var probs = SoftmaxV(x);
  const Tensor& p = probs.value();
  for (int r = 0; r < 4; ++r) {
    double sum = 0.0;
    for (int c = 0; c < 6; ++c) {
      EXPECT_GT(p(r, c), 0.0);
      sum += p(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Autodiff, LogSoftmaxGradient) {
  auto f = [](Tape&, Var x) { return SumV(SquareV(LogSoftmaxV(x))); };
  EXPECT_LT(GradCheck(f, RandomInput(2, 4, 36, -1.0, 1.0)), kTol);
}

TEST(Autodiff, ReusedNodeAccumulatesGradient) {
  // f(x) = sum(x * x + x): d/dx = 2x + 1.
  auto f = [](Tape&, Var x) { return SumV(AddV(MulV(x, x), x)); };
  const Tensor x0 = RandomInput(2, 2, 37);
  Tape tape;
  Var x = tape.Input(x0);
  tape.Backward(f(tape, x));
  for (int i = 0; i < x0.size(); ++i) {
    EXPECT_NEAR(tape.grad(x)[i], 2.0 * x0[i] + 1.0, 1e-10);
  }
}

TEST(Autodiff, LeafAccumulatesIntoParameter) {
  Parameter p("w", Tensor(1, 2, {3.0, -1.0}));
  Tape tape;
  Var w = tape.Leaf(&p);
  tape.Backward(SumV(SquareV(w)));
  EXPECT_DOUBLE_EQ(p.grad(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(p.grad(0, 1), -2.0);
  // Gradient accumulates across tapes until ZeroGrad.
  Tape tape2;
  Var w2 = tape2.Leaf(&p);
  tape2.Backward(SumV(w2));
  EXPECT_DOUBLE_EQ(p.grad(0, 0), 7.0);
  p.ZeroGrad();
  EXPECT_DOUBLE_EQ(p.grad(0, 0), 0.0);
}

TEST(Autodiff, ConstantReceivesNoGradient) {
  Tape tape;
  Var c = tape.Constant(Tensor::Ones(2, 2));
  Var x = tape.Input(Tensor::Ones(2, 2));
  tape.Backward(SumV(MulV(c, x)));
  EXPECT_FALSE(tape.requires_grad(c.id));
}

TEST(Autodiff, DeepChainGradient) {
  // A 20-op chain to stress the reverse sweep.
  auto f = [](Tape&, Var x) {
    Var h = x;
    for (int i = 0; i < 10; ++i) {
      h = TanhV(ScaleV(h, 1.1));
    }
    return SumV(SquareV(h));
  };
  EXPECT_LT(GradCheck(f, RandomInput(2, 3, 38, -0.5, 0.5)), kTol);
}

}  // namespace
}  // namespace nn
}  // namespace sim2rec
