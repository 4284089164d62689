// AVX2 GEMM behind nn::MatMul, MatMulTransA and MatMulTransB. This is
// the only translation unit of nn compiled with -mavx2 (see
// src/nn/CMakeLists.txt), and tensor.cc reaches it only behind the
// ActiveSimdLevel() runtime guard. It includes no header with inline or
// template code that other files also use: such code would be emitted
// here as VEX-encoded weak symbols, and the linker could keep those in
// place of the scalar copies, which would then fault on CPUs without
// AVX2.
//
// Bitwise contract: see gemm_avx2.h. tests/tensor_test.cc compares this
// path with the scalar loops in tensor.cc by memcmp.

#include "nn/gemm_avx2.h"

#include <immintrin.h>

namespace sim2rec {
namespace nn {
namespace {

struct Operands {
  const double* a;
  std::ptrdiff_t a_row;
  std::ptrdiff_t a_depth;
  const double* b;
  double* c;
  int depth;
  std::ptrdiff_t cols;
};

// c[i + r][j, j + 4 * kVecs) for r < kRows, held in kRows x kVecs
// registers of four accumulators each. The product of a skipped term is
// masked to +0.0.
template <int kRows, int kVecs, bool kSkipZero>
inline void Tile(const Operands& g, int i, int j) {
  __m256d acc[kRows][kVecs];
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v) acc[r][v] = _mm256_setzero_pd();
  }
  // Pointers are formed inside the loop only: with depth 0 the operands
  // may be empty (null data) and must not be offset.
  for (int t = 0; t < g.depth; ++t) {
    const double* bt = g.b + t * g.cols + j;
    __m256d bv[kVecs];
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v) bv[v] = _mm256_loadu_pd(bt + 4 * v);
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
      const __m256d av =
          _mm256_broadcast_sd(g.a + (i + r) * g.a_row + t * g.a_depth);
#pragma GCC unroll 2
      for (int v = 0; v < kVecs; ++v) {
        __m256d prod = _mm256_mul_pd(av, bv[v]);
        if constexpr (kSkipZero) {
          prod = _mm256_and_pd(
              prod, _mm256_cmp_pd(av, _mm256_setzero_pd(), _CMP_NEQ_UQ));
        }
        acc[r][v] = _mm256_add_pd(acc[r][v], prod);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v) {
      _mm256_storeu_pd(g.c + (i + r) * g.cols + j + 4 * v, acc[r][v]);
    }
  }
}

// c[i][j] for the last cols % 4 columns, in the scalar loops' order.
template <bool kSkipZero>
inline double Dot(const Operands& g, int i, int j) {
  double s = 0.0;
  for (int t = 0; t < g.depth; ++t) {
    const double av = g.a[i * g.a_row + t * g.a_depth];
    if (kSkipZero && av == 0.0) continue;
    s += av * g.b[t * g.cols + j];
  }
  return s;
}

template <int kRows, bool kSkipZero>
void RowBlock(const Operands& g, int i) {
  int j = 0;
  for (; j + 8 <= g.cols; j += 8) Tile<kRows, 2, kSkipZero>(g, i, j);
  if (j + 4 <= g.cols) {
    Tile<kRows, 1, kSkipZero>(g, i, j);
    j += 4;
  }
  for (; j < g.cols; ++j) {
    for (int r = 0; r < kRows; ++r) {
      g.c[(i + r) * g.cols + j] = Dot<kSkipZero>(g, i + r, j);
    }
  }
}

template <bool kSkipZero>
void Gemm(const Operands& g, int rows) {
  int i = 0;
  for (; i + 4 <= rows; i += 4) RowBlock<4, kSkipZero>(g, i);
  switch (rows - i) {
    case 3:
      RowBlock<3, kSkipZero>(g, i);
      break;
    case 2:
      RowBlock<2, kSkipZero>(g, i);
      break;
    case 1:
      RowBlock<1, kSkipZero>(g, i);
      break;
  }
}

}  // namespace

void GemmAvx2(const double* a, std::ptrdiff_t a_row, std::ptrdiff_t a_depth,
              const double* b, double* c, int rows, int depth, int cols,
              bool skip_zero) {
  const Operands g{a, a_row, a_depth, b, c, depth, cols};
  if (skip_zero) {
    Gemm<true>(g, rows);
  } else {
    Gemm<false>(g, rows);
  }
}

}  // namespace nn
}  // namespace sim2rec
