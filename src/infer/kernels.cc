#include "infer/kernels.h"

#include <cstring>

namespace sim2rec {
namespace infer {

void GemmBiasActScalar(const float* x, const float* w, const float* b,
                       float* y, int n, int k, int m, Act act) {
  for (int i = 0; i < n; ++i) {
    const float* xi = x + static_cast<size_t>(i) * k;
    float* yi = y + static_cast<size_t>(i) * m;
    if (b != nullptr) {
      std::memcpy(yi, b, static_cast<size_t>(m) * sizeof(float));
    } else {
      std::memset(yi, 0, static_cast<size_t>(m) * sizeof(float));
    }
    for (int p = 0; p < k; ++p) {
      const float xv = xi[p];
      const float* wp = w + static_cast<size_t>(p) * m;
      for (int j = 0; j < m; ++j) yi[j] = yi[j] + xv * wp[j];
    }
    for (int j = 0; j < m; ++j) yi[j] = ActivateF(act, yi[j]);
  }
}

#if !defined(SIM2REC_HAVE_AVX2)
// Link-time fallback when the AVX2 translation unit is not built
// (SIM2REC_SIMD=OFF or non-x86). Avx2Available() is false in that
// configuration, so the dispatcher never routes here; only tests that
// call the symbol directly (and skip on !Avx2Available()) link it.
void GemmBiasActAvx2(const float* x, const float* w, const float* b,
                     float* y, int n, int k, int m, Act act) {
  GemmBiasActScalar(x, w, b, y, n, k, m, act);
}
#endif

void GemmBiasAct(const float* x, const float* w, const float* b, float* y,
                 int n, int k, int m, Act act) {
#if defined(SIM2REC_HAVE_AVX2)
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    GemmBiasActAvx2(x, w, b, y, n, k, m, act);
    return;
  }
#endif
  GemmBiasActScalar(x, w, b, y, n, k, m, act);
}

}  // namespace infer
}  // namespace sim2rec
