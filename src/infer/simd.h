#ifndef SIM2REC_INFER_SIMD_H_
#define SIM2REC_INFER_SIMD_H_

// Forwarding header: the dispatcher lives in util/simd.h, shared by nn
// and infer. New code includes util/simd.h; this stays until
// perfbench/src/main.cc switches over.
#include "util/simd.h"

namespace sim2rec {
namespace infer {
using ::sim2rec::ActiveSimdLevel;
using ::sim2rec::SimdLevel;
using ::sim2rec::SimdLevelName;
}  // namespace infer
}  // namespace sim2rec

#endif  // SIM2REC_INFER_SIMD_H_
