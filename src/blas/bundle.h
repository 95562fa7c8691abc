// CPU vector-tier probe (cpuid, detected once at first use). Benchmark
// records stamp it beside the build's SYMPILER_KERNEL_ISA so a result
// names the widest vector ISA the running machine offers, independent of
// the flags the library was compiled with.
#pragma once

namespace sympiler::blas {

/// Vector-ISA tiers, ascending width.
enum class BundleIsa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

[[nodiscard]] const char* to_string(BundleIsa isa);

/// Widest tier this CPU supports.
[[nodiscard]] BundleIsa bundle_isa_active();

}  // namespace sympiler::blas
