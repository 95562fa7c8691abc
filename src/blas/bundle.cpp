// cpuid vector-tier probe (see blas/bundle.h).
#include "blas/bundle.h"

namespace sympiler::blas {

namespace {

BundleIsa detect_best() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f")) return BundleIsa::kAvx512;
  if (__builtin_cpu_supports("avx2")) return BundleIsa::kAvx2;
#endif
  return BundleIsa::kScalar;
}

}  // namespace

const char* to_string(BundleIsa isa) {
  switch (isa) {
    case BundleIsa::kScalar: return "scalar";
    case BundleIsa::kAvx2: return "avx2";
    case BundleIsa::kAvx512: return "avx512";
  }
  return "?";
}

BundleIsa bundle_isa_active() {
  // cpuid once, at first use — not at the build host's mercy.
  static const BundleIsa best = detect_best();
  return best;
}

}  // namespace sympiler::blas
