#include "nn/tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "util/rng.h"
#include "util/simd.h"

namespace sim2rec {
namespace nn {
namespace {

TEST(Tensor, ConstructionAndAccess) {
  Tensor t(2, 3, 1.5);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6);
  EXPECT_DOUBLE_EQ(t(1, 2), 1.5);
  t(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(t(0, 1), -2.0);
}

TEST(Tensor, Identity) {
  const Tensor id = Tensor::Identity(3);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(id(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Tensor, RowAndColVectors) {
  const Tensor row = Tensor::RowVector({1, 2, 3});
  EXPECT_EQ(row.rows(), 1);
  EXPECT_EQ(row.cols(), 3);
  const Tensor col = Tensor::ColVector({4, 5});
  EXPECT_EQ(col.rows(), 2);
  EXPECT_EQ(col.cols(), 1);
  EXPECT_DOUBLE_EQ(col(1, 0), 5.0);
}

TEST(Tensor, MatMulAgainstHandComputed) {
  const Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor b(3, 2, {7, 8, 9, 10, 11, 12});
  const Tensor c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Tensor, MatMulTransposedVariantsAgree) {
  Rng rng(5);
  const Tensor a = Tensor::Randn(4, 3, rng);
  const Tensor b = Tensor::Randn(4, 5, rng);
  // a^T * b via explicit transpose.
  EXPECT_TRUE(AllClose(MatMulTransA(a, b),
                       MatMul(a.Transposed(), b), 1e-12));
  const Tensor c = Tensor::Randn(6, 3, rng);
  const Tensor d = Tensor::Randn(2, 3, rng);
  EXPECT_TRUE(AllClose(MatMulTransB(c, d),
                       MatMul(c, d.Transposed()), 1e-12));
}

TEST(Tensor, ElementwiseOps) {
  const Tensor a(1, 3, {1, 2, 3});
  const Tensor b(1, 3, {4, 5, 6});
  EXPECT_TRUE(AllClose(a + b, Tensor(1, 3, {5, 7, 9})));
  EXPECT_TRUE(AllClose(b - a, Tensor(1, 3, {3, 3, 3})));
  EXPECT_TRUE(AllClose(a * b, Tensor(1, 3, {4, 10, 18})));
  EXPECT_TRUE(AllClose(a * 2.0, Tensor(1, 3, {2, 4, 6})));
  EXPECT_TRUE(AllClose(a + 1.0, Tensor(1, 3, {2, 3, 4})));
}

TEST(Tensor, AddScaled) {
  Tensor a(1, 2, {1, 2});
  const Tensor b(1, 2, {10, 20});
  AddScaled(&a, b, 0.5);
  EXPECT_TRUE(AllClose(a, Tensor(1, 2, {6, 12})));
}

TEST(Tensor, SliceAndStack) {
  const Tensor a(2, 4, {1, 2, 3, 4, 5, 6, 7, 8});
  const Tensor mid = a.SliceCols(1, 3);
  EXPECT_EQ(mid.cols(), 2);
  EXPECT_DOUBLE_EQ(mid(1, 0), 6.0);
  const Tensor top = a.SliceRows(0, 1);
  EXPECT_EQ(top.rows(), 1);

  const Tensor v = VStack({top, top});
  EXPECT_EQ(v.rows(), 2);
  EXPECT_DOUBLE_EQ(v(1, 3), 4.0);
  const Tensor h = HStack({mid, mid});
  EXPECT_EQ(h.cols(), 4);
  EXPECT_DOUBLE_EQ(h(0, 2), 2.0);
}

TEST(Tensor, RowColHelpers) {
  Tensor a(2, 2, {1, 2, 3, 4});
  const Tensor r = a.Row(1);
  EXPECT_DOUBLE_EQ(r(0, 0), 3.0);
  const Tensor c = a.Col(1);
  EXPECT_DOUBLE_EQ(c(1, 0), 4.0);
  a.SetRow(0, Tensor::RowVector({9, 8}));
  EXPECT_DOUBLE_EQ(a(0, 1), 8.0);
}

TEST(Tensor, ColMeanAndStd) {
  const Tensor a(2, 2, {0, 1, 4, 3});
  const Tensor mean = ColMean(a);
  EXPECT_DOUBLE_EQ(mean(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(mean(0, 1), 2.0);
  const Tensor sd = ColStd(a);
  EXPECT_DOUBLE_EQ(sd(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(sd(0, 1), 1.0);
}

TEST(Tensor, Reductions) {
  const Tensor a(2, 2, {1, -2, 3, 4});
  EXPECT_DOUBLE_EQ(a.Sum(), 6.0);
  EXPECT_DOUBLE_EQ(a.MeanAll(), 1.5);
  EXPECT_DOUBLE_EQ(a.MinAll(), -2.0);
  EXPECT_DOUBLE_EQ(a.MaxAll(), 4.0);
  EXPECT_NEAR(a.Norm(), std::sqrt(30.0), 1e-12);
}

TEST(Tensor, HasNonFinite) {
  Tensor a(1, 2, {1.0, 2.0});
  EXPECT_FALSE(a.HasNonFinite());
  a(0, 1) = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(a.HasNonFinite());
}

TEST(Tensor, TransposedRoundTrip) {
  Rng rng(9);
  const Tensor a = Tensor::Randn(3, 5, rng);
  EXPECT_TRUE(AllClose(a.Transposed().Transposed(), a));
}

TEST(Tensor, RandnStatistics) {
  Rng rng(21);
  const Tensor a = Tensor::Randn(200, 200, rng, 1.0, 0.5);
  EXPECT_NEAR(a.MeanAll(), 1.0, 0.01);
}

// ---------------------------------------------------------------------------
// GEMM dispatch: the AVX2 path of MatMul, MatMulTransA and MatMulTransB
// is bitwise-identical to the scalar loops on every tile tail and on
// non-finite input.
// ---------------------------------------------------------------------------

class SimdLevelGuard {
 public:
  ~SimdLevelGuard() { ResetSimdLevel(); }
};

// Standard normal entries, about a fifth of them replaced by +-0 and
// subnormals and, when `nan` is given, by `nan` and +-inf as well.
Tensor Speckled(int rows, int cols, Rng& rng, const double* nan) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kSpecial[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -3e-310,
                             kInf,
                             -kInf,
                             nan != nullptr ? *nan : 0.0};
  Tensor t = Tensor::Randn(rows, cols, rng);
  for (int i = 0; i < t.size(); ++i) {
    if (rng.Uniform() < 0.2) {
      t[i] = kSpecial[rng.UniformInt(nan != nullptr ? 7 : 4)];
    }
  }
  return t;
}

bool BitwiseEqual(const Tensor& x, const Tensor& y) {
  return x.SameShape(y) &&
         (x.empty() || std::memcmp(x.data(), y.data(),
                                   x.size() * sizeof(double)) == 0);
}

// Bitwise equal, except that two NaNs count as equal whatever their
// sign and payload.
bool EqualUpToNanPayload(const Tensor& x, const Tensor& y) {
  if (!x.SameShape(y)) return false;
  for (int i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i]) && std::isnan(y[i])) continue;
    if (std::memcmp(x.data() + i, y.data() + i, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(GemmDispatch, ScalarAndAvx2BitwiseIdentical) {
  if (!Avx2Available()) {
    GTEST_SKIP() << "AVX2 kernels not compiled in or CPU unsupported";
  }
  SimdLevelGuard guard;
  // On x86, 0 * inf and inf - inf give the default NaN, -qNaN. When
  // every NaN is that one the two paths must agree bit for bit. When
  // NaNs of different sign meet in one add, IEEE 754 leaves which one
  // survives to the implementation, and the compiler may commute the
  // scalar loops' adds; then only NaN signs may differ.
  const double kDefaultNan =
      std::copysign(std::numeric_limits<double>::quiet_NaN(), -1.0);
  const double kPositiveNan = std::numeric_limits<double>::quiet_NaN();
  const double* const kNans[] = {nullptr, &kDefaultNan, &kPositiveNan};
  // n and m hit every tile tail (4 rows x 8 columns, then 4 columns,
  // then single elements); k = 0 leaves the outputs at +0.0.
  const int kSizes[] = {1, 3, 4, 5, 7, 8, 9, 31, 33, 65};
  const int kDepths[] = {0, 1, 5, 48};
  Rng rng(2024);
  for (int n : kSizes) {
    for (int m : kSizes) {
      for (int k : kDepths) {
        for (const double* nan : kNans) {
          SCOPED_TRACE(::testing::Message()
                       << "n=" << n << " k=" << k << " m=" << m
                       << " nan=" << (nan == nullptr ? 0.0 : *nan));
          // Every product is n x m over depth k: a * b, (a^T)^T * b and
          // a * (b^T)^T.
          Tensor a = Speckled(n, k, rng, nan);
          const Tensor b = Speckled(k, m, rng, nan);
          if (nan != nullptr) {
            // A row of exact zeros against inf/NaN in b: MatMul and
            // MatMulTransA skip those terms, so the row stays +0.0.
            for (int p = 0; p < k; ++p) a(0, p) = p % 2 == 0 ? 0.0 : -0.0;
          }
          const Tensor at = a.Transposed();
          const Tensor bt = b.Transposed();

          ForceSimdLevel(SimdLevel::kScalar);
          const Tensor scalar[] = {MatMul(a, b), MatMulTransA(at, b),
                                   MatMulTransB(a, bt)};
          ForceSimdLevel(SimdLevel::kAvx2);
          const Tensor avx2[] = {MatMul(a, b), MatMulTransA(at, b),
                                 MatMulTransB(a, bt)};
          const char* const kNames[] = {"MatMul", "MatMulTransA",
                                        "MatMulTransB"};
          for (int g = 0; g < 3; ++g) {
            if (nan == &kPositiveNan) {
              ASSERT_TRUE(EqualUpToNanPayload(scalar[g], avx2[g]))
                  << kNames[g];
            } else {
              ASSERT_TRUE(BitwiseEqual(scalar[g], avx2[g])) << kNames[g];
            }
          }
          if (nan != nullptr) {
            const Tensor zero_row = Tensor::Zeros(1, m);
            ASSERT_TRUE(BitwiseEqual(avx2[0].Row(0), zero_row));
            ASSERT_TRUE(BitwiseEqual(avx2[1].Row(0), zero_row));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace nn
}  // namespace sim2rec
