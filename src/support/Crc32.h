//===- support/Crc32.h - CRC32C checksums for durable logs ------*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) over byte
/// ranges. Every durable log segment (LIGHT003, and legacy LIGHT002)
/// carries one of these so a torn tail or a flipped bit is detected at load
/// time instead of silently corrupting the replay schedule. Each epoch flush checksums its whole
/// segment, so crc32c() uses the SSE4.2 crc32 instruction when the CPU has
/// it (checked once at run time) and a byte-table fallback otherwise; both
/// compute the same checksum.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_SUPPORT_CRC32_H
#define LIGHT_SUPPORT_CRC32_H

#include <cstddef>
#include <cstdint>

namespace light {

/// CRC32C of \p Len bytes at \p Data, continuing from \p Seed (pass the
/// previous return value to checksum a range in chunks; 0 starts fresh).
uint32_t crc32c(const void *Data, size_t Len, uint32_t Seed = 0);

/// The two implementations behind crc32c(), exposed for the differential
/// test. hardware() may only be called when hasHardware() is true.
namespace crc32c_impl {
uint32_t table(const void *Data, size_t Len, uint32_t Seed);
uint32_t hardware(const void *Data, size_t Len, uint32_t Seed);
bool hasHardware();
} // namespace crc32c_impl

} // namespace light

#endif // LIGHT_SUPPORT_CRC32_H
