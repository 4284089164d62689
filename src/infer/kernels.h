#ifndef SIM2REC_INFER_KERNELS_H_
#define SIM2REC_INFER_KERNELS_H_

#include <cmath>

#include "util/simd.h"

namespace sim2rec {
namespace infer {

/// Pointwise nonlinearity of a fused GEMM. Mirrors nn::Activation but is
/// kept separate so the kernel layer has no dependency on src/nn.
enum class Act { kIdentity, kTanh, kRelu, kSigmoid, kSoftplus };

// ---------------------------------------------------------------------------
// Scalar float primitives.
//
// These are the single source of truth for the float32 math: the AVX2
// kernels in kernels_avx2.cc apply the *same* sequence of IEEE single
// operations per lane (the shared k* constants below, explicit multiply
// then add — the infer/ targets build with -ffp-contract=off so neither
// path fuses into FMA). That is what makes scalar and AVX2 dispatch
// bitwise-identical, which tests/infer_test.cc asserts exactly.
// ---------------------------------------------------------------------------

/// min/max with x86 vector semantics (`a OP b ? a : b`, returns b when
/// either operand is NaN) so the scalar path mirrors _mm256_min_ps /
/// _mm256_max_ps even on non-finite input.
inline float MinPs(float a, float b) { return a < b ? a : b; }
inline float MaxPs(float a, float b) { return a > b ? a : b; }

/// Rational tanh approximant on the clamped range (the classic
/// odd-polynomial-over-even-polynomial form used by vector math
/// libraries); a few ULP of std::tanh, branch-free modulo the tiny-input
/// passthrough.
inline constexpr float kTanhClamp = 7.90531110763549805f;
inline constexpr float kTanhTiny = 0.0004f;
inline constexpr float kTanhAlpha1 = 4.89352455891786e-03f;
inline constexpr float kTanhAlpha3 = 6.37261928875436e-04f;
inline constexpr float kTanhAlpha5 = 1.48572235717979e-05f;
inline constexpr float kTanhAlpha7 = 5.12229709037114e-08f;
inline constexpr float kTanhAlpha9 = -8.60467152213735e-11f;
inline constexpr float kTanhAlpha11 = 2.00018790482477e-13f;
inline constexpr float kTanhAlpha13 = -2.76076847742355e-16f;
inline constexpr float kTanhBeta0 = 4.89352518554385e-03f;
inline constexpr float kTanhBeta2 = 2.26843463243900e-03f;
inline constexpr float kTanhBeta4 = 1.18534705686654e-04f;
inline constexpr float kTanhBeta6 = 1.19825839466702e-06f;

inline float TanhF(float x) {
  const float ax = x < 0.0f ? -x : x;
  const float xc = MaxPs(MinPs(x, kTanhClamp), -kTanhClamp);
  const float x2 = xc * xc;
  float p = kTanhAlpha13;
  p = x2 * p + kTanhAlpha11;
  p = x2 * p + kTanhAlpha9;
  p = x2 * p + kTanhAlpha7;
  p = x2 * p + kTanhAlpha5;
  p = x2 * p + kTanhAlpha3;
  p = x2 * p + kTanhAlpha1;
  p = xc * p;
  float q = x2 * kTanhBeta6 + kTanhBeta4;
  q = x2 * q + kTanhBeta2;
  q = x2 * q + kTanhBeta0;
  const float r = p / q;
  return ax < kTanhTiny ? x : r;
}

inline float SigmoidF(float x) {
  return 0.5f * TanhF(0.5f * x) + 0.5f;
}

inline float ReluF(float x) { return MaxPs(x, 0.0f); }

/// Softplus stays scalar on every dispatch level (no serving head uses
/// it; kept so any nn::Activation freezes).
inline float SoftplusF(float x) {
  return x > 0.0f ? x + std::log1p(std::exp(-x))
                  : static_cast<float>(std::log1p(std::exp(x)));
}

inline float ActivateF(Act act, float x) {
  switch (act) {
    case Act::kIdentity:
      return x;
    case Act::kTanh:
      return TanhF(x);
    case Act::kRelu:
      return ReluF(x);
    case Act::kSigmoid:
      return SigmoidF(x);
    case Act::kSoftplus:
      return SoftplusF(x);
  }
  return x;
}

// ---------------------------------------------------------------------------
// Fused GEMM + bias + activation.
// ---------------------------------------------------------------------------

/// y[n x m] = act(x[n x k] . w[k x m] + b), all buffers contiguous
/// row-major float32; `b` has m entries or is null (treated as zero).
/// `y` must not alias `x`/`w`/`b`. Per output element the accumulation is
/// b[j] + x[i,0]*w[0,j] + x[i,1]*w[1,j] + ... in that exact order on both
/// dispatch levels. Dispatches on ActiveSimdLevel().
void GemmBiasAct(const float* x, const float* w, const float* b, float* y,
                 int n, int k, int m, Act act);

/// Portable reference implementation (what kSimdLevel::kScalar runs).
void GemmBiasActScalar(const float* x, const float* w, const float* b,
                       float* y, int n, int k, int m, Act act);

/// AVX2 implementation; defined only when the build compiles the AVX2
/// translation unit (SIM2REC_SIMD=ON on x86-64). Callers go through
/// GemmBiasAct, which guards on ActiveSimdLevel().
void GemmBiasActAvx2(const float* x, const float* w, const float* b,
                     float* y, int n, int k, int m, Act act);

}  // namespace infer
}  // namespace sim2rec

#endif  // SIM2REC_INFER_KERNELS_H_
