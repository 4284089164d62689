#ifndef SIM2REC_NN_GEMM_AVX2_H_
#define SIM2REC_NN_GEMM_AVX2_H_

#include <cstddef>

namespace sim2rec {
namespace nn {

/// AVX2 body of MatMul, MatMulTransA and MatMulTransB (tensor.h). It is
/// defined only when the build compiles AVX2 (SIM2REC_SIMD=ON on x86-64),
/// and tensor.cc calls it only when ActiveSimdLevel() is kAvx2.
///
/// Writes every entry of the row-major rows x cols matrix `c`:
///
///   c[i][j] = sum over t = 0 .. depth-1 of A(i, t) * b[t * cols + j],
///   A(i, t) = a[i * a_row + t * a_depth].
///
/// Bitwise contract with the scalar loops in tensor.cc: each element
/// starts at +0.0 and adds A(i, t) * b(t, j) for ascending t, multiply
/// then add, never FMA (nn builds with -ffp-contract=off). With
/// `skip_zero`, a term whose A(i, t) == 0.0 adds +0.0 instead of the
/// product. That equals the scalar loops' skip even when b holds inf or
/// NaN: an accumulator that starts at +0.0 never becomes -0.0 under
/// round-to-nearest, and adding +0.0 to any other value leaves it as is.
/// One caveat: when two NaNs of different sign meet in one add, IEEE 754
/// leaves which one survives to the implementation, and the compiler may
/// commute the scalar loops' adds, so only the NaN's sign may differ.
void GemmAvx2(const double* a, std::ptrdiff_t a_row, std::ptrdiff_t a_depth,
              const double* b, double* c, int rows, int depth, int cols,
              bool skip_zero);

}  // namespace nn
}  // namespace sim2rec

#endif  // SIM2REC_NN_GEMM_AVX2_H_
