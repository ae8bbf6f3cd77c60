//===- tests/support/Crc32Test.cpp - CRC32C implementations ---------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// crc32c() dispatches to the SSE4.2 crc32 instruction when the CPU has it
/// and to a byte table otherwise. Both must produce the same checksum for
/// every length and alignment (the word loop's head and tail handling is
/// where they could drift), and both must match the standard CRC32C check
/// value — a durable log written on one host has to verify on any other.
///
//===----------------------------------------------------------------------===//

#include "support/Crc32.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <vector>

using namespace light;

TEST(Crc32c, StandardCheckValue) {
  const char *Check = "123456789";
  EXPECT_EQ(crc32c(Check, 9), 0xE3069283u);
  EXPECT_EQ(crc32c_impl::table(Check, 9, 0), 0xE3069283u);
  if (crc32c_impl::hasHardware())
    EXPECT_EQ(crc32c_impl::hardware(Check, 9, 0), 0xE3069283u);
  EXPECT_EQ(crc32c(Check, 0), 0u);
}

TEST(Crc32c, HardwareMatchesTableAtEveryLengthAndOffset) {
  if (!crc32c_impl::hasHardware())
    GTEST_SKIP() << "no SSE4.2 crc32 on this CPU; table path only";
  Rng R(0xc5c32);
  std::vector<unsigned char> Buf(4097 + 8);
  for (unsigned char &B : Buf)
    B = static_cast<unsigned char>(R.next());
  for (size_t Off = 0; Off < 8; ++Off)
    for (size_t Len = 0; Len <= 4097; ++Len) {
      uint32_t Seed = Len % 3 == 0 ? 0 : static_cast<uint32_t>(R.next());
      ASSERT_EQ(crc32c_impl::hardware(Buf.data() + Off, Len, Seed),
                crc32c_impl::table(Buf.data() + Off, Len, Seed))
          << "offset " << Off << " length " << Len << " seed " << Seed;
    }
}

TEST(Crc32c, ChunkedContinuationEqualsOneShot) {
  Rng R(91);
  std::vector<unsigned char> Buf(1000);
  for (unsigned char &B : Buf)
    B = static_cast<unsigned char>(R.next());
  uint32_t Whole = crc32c(Buf.data(), Buf.size());
  for (size_t Cut : {0ul, 1ul, 7ul, 8ul, 13ul, 500ul, 999ul, 1000ul})
    EXPECT_EQ(crc32c(Buf.data() + Cut, Buf.size() - Cut,
                     crc32c(Buf.data(), Cut)),
              Whole)
        << "cut at " << Cut;
}
