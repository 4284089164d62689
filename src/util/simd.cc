#include "util/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"

namespace sim2rec {
namespace {

constexpr int kUnresolved = -1;

// -1 until first resolution; afterwards a SimdLevel value.
std::atomic<int> g_level{kUnresolved};

bool EnvForcesScalar() {
  const char* env = std::getenv("SIM2REC_SIMD");
  if (env == nullptr) return false;
  return std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
         std::strcmp(env, "OFF") == 0 || std::strcmp(env, "scalar") == 0;
}

SimdLevel Resolve() {
  if (!Avx2Available()) return SimdLevel::kScalar;
  if (EnvForcesScalar()) return SimdLevel::kScalar;
  return SimdLevel::kAvx2;
}

}  // namespace

bool Avx2Available() {
#if defined(SIM2REC_HAVE_AVX2)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

SimdLevel ActiveSimdLevel() {
  int level = g_level.load(std::memory_order_acquire);
  if (level == kUnresolved) {
    level = static_cast<int>(Resolve());
    g_level.store(level, std::memory_order_release);
  }
  return static_cast<SimdLevel>(level);
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

void ForceSimdLevel(SimdLevel level) {
  S2R_CHECK_MSG(level != SimdLevel::kAvx2 || Avx2Available(),
                "cannot force AVX2 dispatch: kernels missing or CPU "
                "unsupported");
  g_level.store(static_cast<int>(level), std::memory_order_release);
}

void ResetSimdLevel() {
  g_level.store(kUnresolved, std::memory_order_release);
}

}  // namespace sim2rec
