//===- tests/trace/SegmentCodecTest.cpp - LIGHT003 span encoder -----------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// Byte identity of the LIGHT003 span encoder. CompressedSegmentEncoder::
/// addSpans writes into a pre-sized buffer with per-thread delta bases in a
/// flat array; the reference below is the straightforward per-byte encoder
/// (growing vector, hash-map delta bases) that defined the format. Every
/// random section — invalid sources, interleaved threads, large and
/// negative deltas, Max*-width fields — must encode to the same bytes and
/// decode back to the same spans.
///
//===----------------------------------------------------------------------===//

#include "trace/SegmentCodec.h"

#include "support/Random.h"
#include "testlib/TestEnv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <vector>

using namespace light;

namespace {

/// The reference span-section encoder: the LIGHT003 definition, one
/// push_back per byte.
std::vector<uint8_t> referenceSpanSection(const std::vector<DepSpan> &Spans) {
  std::vector<uint8_t> Bytes;
  v3::putVarint(Bytes, static_cast<uint64_t>(LogSection::Spans));
  v3::putVarint(Bytes, Spans.size());
  uint64_t PrevLoc = 0;
  std::unordered_map<ThreadId, Counter> PrevFirst;
  for (const DepSpan &S : Spans) {
    Bytes.push_back(static_cast<uint8_t>(S.Kind) |
                    (S.Src.valid() ? 0x4 : 0x0));
    v3::putZigzag(Bytes, static_cast<int64_t>(S.Loc - PrevLoc));
    v3::putVarint(Bytes, S.Thread);
    Counter &PF = PrevFirst[S.Thread];
    v3::putZigzag(Bytes, static_cast<int64_t>(S.First - PF));
    v3::putVarint(Bytes, S.Last - S.First);
    if (S.Src.valid()) {
      v3::putVarint(Bytes, S.Src.Thread);
      v3::putZigzag(Bytes, static_cast<int64_t>(S.Src.Count - S.First));
    }
    PrevLoc = S.Loc;
    PF = S.First;
  }
  return Bytes;
}

/// The container word-wrapping of CompressedSegmentEncoder::finish().
std::vector<uint64_t> wrap(const std::vector<uint8_t> &Bytes) {
  std::vector<uint64_t> Out(1 + (Bytes.size() + 7) / 8, 0);
  Out[0] = Bytes.size();
  if (!Bytes.empty())
    std::memcpy(Out.data() + 1, Bytes.data(), Bytes.size());
  return Out;
}

/// A counter drawn from the edges as often as from the middle.
Counter drawCounter(Rng &R) {
  switch (R.below(4)) {
  case 0:
    return MaxAccessCounter - R.below(4);
  case 1:
    return 1 + R.below(16);
  default:
    return 1 + R.below(MaxAccessCounter);
  }
}

DepSpan drawSpan(Rng &R, uint32_t Threads) {
  DepSpan S;
  switch (R.below(4)) {
  case 0:
    S.Loc = ~0ull - R.below(3); // max-width location word
    break;
  case 1:
    S.Loc = loc::var(R.below(8)); // near-zero deltas
    break;
  default:
    S.Loc = R.next(); // large deltas either way
    break;
  }
  S.Thread = R.below(8) == 0 ? MaxSpanThread
                             : static_cast<ThreadId>(R.below(Threads));
  S.Kind = static_cast<SpanKind>(R.below(3));
  S.First = drawCounter(R);
  Counter Len = R.below(3) == 0 ? R.below(MaxAccessCounter - S.First + 1)
                                : R.below(8);
  S.Last = S.First + std::min<Counter>(Len, MaxAccessCounter - S.First);
  if (R.below(3) != 0) { // else: invalid source (Count == 0)
    S.Src.Thread = R.below(8) == 0 ? 0xffff : static_cast<ThreadId>(R.next());
    S.Src.Count = drawCounter(R);
  }
  return S;
}

} // namespace

TEST(SegmentCodec, AddSpansMatchesReferenceBytes) {
  uint64_t Seed = testenv::effectiveSeed(0x5ec0dec);
  SCOPED_TRACE(testenv::repro(Seed));
  Rng R(Seed);
  int Iters = testenv::iters(300);
  for (int It = 0; It < Iters; ++It) {
    uint32_t Threads = 1 + static_cast<uint32_t>(R.below(6));
    std::vector<DepSpan> Spans(R.below(200));
    for (DepSpan &S : Spans)
      S = drawSpan(R, Threads);
    ASSERT_TRUE(std::all_of(Spans.begin(), Spans.end(), spanEncodable));

    CompressedSegmentEncoder Enc;
    ASSERT_TRUE(Enc.addSpans(Spans.data(), Spans.size()));
    std::vector<uint8_t> Ref =
        Spans.empty() ? std::vector<uint8_t>() : referenceSpanSection(Spans);
    ASSERT_EQ(Enc.finish(), wrap(Ref)) << "iteration " << It;

    RecordingLog Log;
    ASSERT_TRUE(decodeSegmentCompressed(Enc.finish(), Log));
    ASSERT_EQ(Log.Spans.size(), Spans.size());
    for (size_t I = 0; I < Spans.size(); ++I)
      ASSERT_EQ(Log.Spans[I], Spans[I]) << "iteration " << It << " span " << I;
  }
}

TEST(SegmentCodec, AddSpansAppendsAfterEarlierSections) {
  // Sections share one byte stream: a span section after a syscall section
  // (and a second span section after it, with fresh delta bases) must land
  // exactly where the reference puts it.
  Rng R(testenv::effectiveSeed(77));
  std::vector<DepSpan> A(50), B(30);
  for (DepSpan &S : A)
    S = drawSpan(R, 3);
  for (DepSpan &S : B)
    S = drawSpan(R, 3);
  SyscallRecord Calls[2] = {{1, 42}, {2, ~0ull}};

  CompressedSegmentEncoder Enc;
  ASSERT_TRUE(Enc.addSyscalls(Calls, 2));
  ASSERT_TRUE(Enc.addSpans(A.data(), A.size()));
  ASSERT_TRUE(Enc.addSpans(B.data(), B.size()));

  std::vector<uint8_t> Ref;
  v3::putVarint(Ref, static_cast<uint64_t>(LogSection::Syscalls));
  v3::putVarint(Ref, 2);
  for (const SyscallRecord &C : Calls) {
    v3::putVarint(Ref, C.Thread);
    v3::putVarint(Ref, C.Value);
  }
  for (const std::vector<DepSpan> *Section : {&A, &B}) {
    std::vector<uint8_t> S = referenceSpanSection(*Section);
    Ref.insert(Ref.end(), S.begin(), S.end());
  }
  EXPECT_EQ(Enc.byteSize(), Ref.size());
  EXPECT_EQ(Enc.finish(), wrap(Ref));
}

TEST(SegmentCodec, UnencodableSpanLeavesTheStreamUnchanged) {
  DepSpan Good;
  Good.Loc = loc::var(1);
  Good.Thread = 1;
  Good.First = Good.Last = 5;
  DepSpan Bad = Good;
  Bad.Thread = MaxSpanThread + 1; // one past the wire's thread width
  CompressedSegmentEncoder Enc;
  ASSERT_TRUE(Enc.addSpans(&Good, 1));
  std::vector<uint64_t> Before = Enc.finish();
  DepSpan Both[2] = {Good, Bad};
  EXPECT_FALSE(Enc.addSpans(Both, 2));
  EXPECT_EQ(Enc.finish(), Before);
}
