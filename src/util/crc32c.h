// CRC-32C (Castagnoli, polynomial 0x82F63B78, reflected). The checksum
// the plan-file format uses for its header, section-table, and payload
// integrity checks (core/plan_serde.h). Castagnoli rather than the zlib
// polynomial because x86 has carried a dedicated CRC-32C instruction
// since SSE4.2: the load path CRCs every byte of a multi-megabyte plan
// file before trusting it, and the restart-warm budget (store load +
// re-verify <= 0.5x cold planning, bench/cache_reuse.cpp) leaves no room
// for a table-driven byte loop there.
//
// Dispatch: one runtime __builtin_cpu_supports probe (cpuid once, at
// first use) selects the hardware path, falling back to portable
// slicing-by-8. Both paths compute the identical
// function — pinned by a known-answer test plus an equivalence sweep in
// tests/test_persistence.cpp — so files written on one machine validate
// on any other.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sympiler::util {

/// CRC-32C of `len` bytes (initial value/final xor 0xFFFFFFFF, the
/// standard whole-buffer convention). Check value: crc32c("123456789")
/// == 0xE3069283.
[[nodiscard]] std::uint32_t crc32c(const void* data, std::size_t len);

/// The portable slicing-by-8 implementation, bypassing dispatch. Exposed
/// so tests can pin hardware/software equivalence; production callers use
/// crc32c().
[[nodiscard]] std::uint32_t crc32c_software(const void* data,
                                            std::size_t len);

}  // namespace sympiler::util
