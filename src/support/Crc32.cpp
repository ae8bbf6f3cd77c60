//===- support/Crc32.cpp - CRC32C checksums for durable logs --------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "support/Crc32.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

using namespace light;

namespace {

struct Crc32cTable {
  uint32_t T[256];
  constexpr Crc32cTable() : T{} {
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? (0x82f63b78u ^ (C >> 1)) : (C >> 1);
      T[I] = C;
    }
  }
};

constexpr Crc32cTable Table;

} // namespace

uint32_t crc32c_impl::table(const void *Data, size_t Len, uint32_t Seed) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint32_t C = ~Seed;
  for (size_t I = 0; I < Len; ++I)
    C = Table.T[(C ^ P[I]) & 0xff] ^ (C >> 8);
  return ~C;
}

#if defined(__x86_64__)

bool crc32c_impl::hasHardware() {
  static const bool Has = __builtin_cpu_supports("sse4.2");
  return Has;
}

// The crc32 instruction implements the same reflected CRC32C update as the
// table loop (without the pre/post inversion), one or eight bytes at a time.
__attribute__((target("sse4.2"))) uint32_t
crc32c_impl::hardware(const void *Data, size_t Len, uint32_t Seed) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint32_t C = ~Seed;
  // Align to 8 bytes so the word loop reads naturally aligned words.
  while (Len && (reinterpret_cast<uintptr_t>(P) & 7)) {
    C = _mm_crc32_u8(C, *P++);
    --Len;
  }
  uint64_t C64 = C;
  for (; Len >= 8; Len -= 8, P += 8) {
    uint64_t W;
    std::memcpy(&W, P, 8);
    C64 = _mm_crc32_u64(C64, W);
  }
  C = static_cast<uint32_t>(C64);
  while (Len--)
    C = _mm_crc32_u8(C, *P++);
  return ~C;
}

#else

bool crc32c_impl::hasHardware() { return false; }

uint32_t crc32c_impl::hardware(const void *Data, size_t Len, uint32_t Seed) {
  return table(Data, Len, Seed);
}

#endif

uint32_t light::crc32c(const void *Data, size_t Len, uint32_t Seed) {
  return crc32c_impl::hasHardware() ? crc32c_impl::hardware(Data, Len, Seed)
                                    : crc32c_impl::table(Data, Len, Seed);
}
