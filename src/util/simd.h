#ifndef SIM2REC_UTIL_SIMD_H_
#define SIM2REC_UTIL_SIMD_H_

namespace sim2rec {

/// Kernel dispatch level, shared by the double training GEMMs (nn/) and
/// the float32 serving kernels (infer/). Each AVX2 kernel applies the
/// same per-element operations in the same order as its scalar
/// reference, so switching level changes speed, never answers;
/// tests/tensor_test.cc and tests/infer_test.cc pin the equivalence
/// exactly.
enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,
};

/// The level kernels actually run at, resolved once on first use from
/// three gates (all must pass for kAvx2):
///  * the AVX2 kernels were compiled in (-DSIM2REC_SIMD=ON, the
///    default; OFF builds are scalar-only),
///  * the CPU reports AVX2 at runtime (cpuid),
///  * the SIM2REC_SIMD environment variable does not force scalar
///    (values `0`, `off`, or `scalar` do; unset/anything else is auto).
SimdLevel ActiveSimdLevel();

const char* SimdLevelName(SimdLevel level);

/// True when this binary contains the AVX2 kernels *and* the CPU
/// supports them — ignores the environment override. The equivalence
/// tests key on this to decide whether kAvx2 can be forced.
bool Avx2Available();

/// Test hooks. ForceSimdLevel overrides the resolved level (forcing
/// kAvx2 requires Avx2Available()); ResetSimdLevel re-resolves from
/// build/CPU/environment on next use.
void ForceSimdLevel(SimdLevel level);
void ResetSimdLevel();

}  // namespace sim2rec

#endif  // SIM2REC_UTIL_SIMD_H_
