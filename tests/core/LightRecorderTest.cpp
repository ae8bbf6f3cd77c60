//===- tests/core/LightRecorderTest.cpp - Algorithm 1 unit tests -----------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// Direct unit tests of the recording scheme against hand-driven access
/// sequences (no interpreter): the prec compression, O1 spans, span
/// splitting on interleaving, RMW spans, and the optimistic read protocol.
///
//===----------------------------------------------------------------------===//

#include "core/LightRecorder.h"

#include <gtest/gtest.h>

using namespace light;

namespace {

struct Driver {
  LightRecorder Rec;
  LocMeta Meta;   ///< one location "x"
  LocMeta MetaY;  ///< a second location "y"
  LocationId X = loc::var(1);
  LocationId Y = loc::var(2);

  explicit Driver(LightOptions Opts) : Rec([&] {
    return Opts;
  }()) {}

  void write(ThreadId T, LocationId L = InvalidLocation) {
    Rec.onWrite(T, L ? L : X, L == loc::var(2) ? MetaY : Meta, [] {});
  }
  void read(ThreadId T, LocationId L = InvalidLocation) {
    Rec.onRead(T, L ? L : X, L == loc::var(2) ? MetaY : Meta, [] {});
  }
  void rmw(ThreadId T) { Rec.onRmw(T, X, Meta, [] {}); }

  RecordingLog finish() { return Rec.finish(); }
};

} // namespace

TEST(LightRecorder, PrecMergesRepeatReads) {
  // W(t1) then five reads by t2: exactly one dependence span, the prec
  // compression of Algorithm 1 lines 7-9.
  Driver D(LightOptions::basic());
  D.write(1);
  for (int I = 0; I < 5; ++I)
    D.read(2);
  RecordingLog Log = D.finish();
  ASSERT_EQ(Log.Spans.size(), 1u);
  const DepSpan &S = Log.Spans[0];
  EXPECT_EQ(S.Kind, SpanKind::Read);
  EXPECT_EQ(S.Src, AccessId(1, 1));
  EXPECT_EQ(S.Thread, 2);
  EXPECT_EQ(S.First, 1u);
  EXPECT_EQ(S.Last, 5u);
}

TEST(LightRecorder, NewWriteSplitsReadSpan) {
  Driver D(LightOptions::basic());
  D.write(1); // (t1,1)
  D.read(2);
  D.read(2);
  D.write(1); // (t1,2)
  D.read(2);
  RecordingLog Log = D.finish();
  ASSERT_EQ(Log.Spans.size(), 2u);
  EXPECT_EQ(Log.Spans[0].Src, AccessId(1, 1));
  EXPECT_EQ(Log.Spans[0].Last, 2u);
  EXPECT_EQ(Log.Spans[1].Src, AccessId(1, 2));
}

TEST(LightRecorder, InitReadsFormInitSpan) {
  Driver D(LightOptions::basic());
  D.read(1);
  D.read(1);
  RecordingLog Log = D.finish();
  ASSERT_EQ(Log.Spans.size(), 1u);
  EXPECT_EQ(Log.Spans[0].Kind, SpanKind::Init);
  EXPECT_FALSE(Log.Spans[0].Src.valid());
}

TEST(LightRecorder, O1MergesUninterleavedRuns) {
  // t1: W R W R R uninterleaved => one Own span under O1.
  Driver D(LightOptions::o1Only());
  D.write(1);
  D.read(1);
  D.write(1);
  D.read(1);
  D.read(1);
  RecordingLog Log = D.finish();
  ASSERT_EQ(Log.Spans.size(), 1u);
  EXPECT_EQ(Log.Spans[0].Kind, SpanKind::Own);
  EXPECT_EQ(Log.Spans[0].First, 1u);
  EXPECT_EQ(Log.Spans[0].Last, 5u);
}

TEST(LightRecorder, WithoutO1EachOwnReadRecords) {
  // Same run, V_basic: the intra-thread dependences appear as read spans.
  Driver D(LightOptions::basic());
  D.write(1);
  D.read(1);
  D.write(1);
  D.read(1);
  D.read(1);
  RecordingLog Log = D.finish();
  ASSERT_EQ(Log.Spans.size(), 2u);
  for (const DepSpan &S : Log.Spans)
    EXPECT_EQ(S.Kind, SpanKind::Read);
}

TEST(LightRecorder, ForeignWriteClosesOwnSpan) {
  Driver D(LightOptions::o1Only());
  D.write(1);
  D.read(1);
  D.write(2); // foreign write interleaves
  D.read(1);  // t1 now reads t2's write
  RecordingLog Log = D.finish();
  // t1's own span [1..2], then t1's read span sourced at (t2,1). The
  // single foreign write itself is a bare source (no span).
  ASSERT_EQ(Log.Spans.size(), 2u);
  EXPECT_EQ(Log.Spans[0].Kind, SpanKind::Own);
  EXPECT_EQ(Log.Spans[0].Last, 2u);
  EXPECT_EQ(Log.Spans[1].Kind, SpanKind::Read);
  EXPECT_EQ(Log.Spans[1].Src, AccessId(2, 1));
}

TEST(LightRecorder, ForeignReadSplitsOwnSpanAtTheReadPoint) {
  // Lemma 4.3's precondition: a foreign *read* interrupts the
  // uninterleaved sequence; the owner's span must not extend past it with
  // further writes.
  Driver D(LightOptions::o1Only());
  D.write(1); // (t1,1): span opens
  D.read(2);  // foreign read of (t1,1)
  D.write(1); // must start a NEW own span, not extend past the reader
  D.read(1);  // reads own (t1,2): keeps the second span dependence-bearing
  RecordingLog Log = D.finish();
  ASSERT_EQ(Log.Spans.size(), 2u);
  // t1's second span must start at the second write: the foreign read
  // blocked extension of the first one (whose lone write survives only as
  // the dependence source of t2's span).
  EXPECT_EQ(Log.Spans[0].Thread, 1);
  EXPECT_EQ(Log.Spans[0].Kind, SpanKind::Own);
  EXPECT_EQ(Log.Spans[0].First, 2u);
  EXPECT_EQ(Log.Spans[0].Last, 3u);
  EXPECT_EQ(Log.Spans[1].Thread, 2);
  EXPECT_EQ(Log.Spans[1].Src, AccessId(1, 1));
}

TEST(LightRecorder, RmwHeadsOwnSpanWithSource) {
  Driver D(LightOptions::both());
  D.write(1); // (t1,1)
  D.rmw(2);   // acquires: reads (t1,1), writes
  RecordingLog Log = D.finish();
  bool Found = false;
  for (const DepSpan &S : Log.Spans)
    if (S.Thread == 2 && S.Kind == SpanKind::Own &&
        S.Src == AccessId(1, 1))
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(LightRecorder, O2SkipsGuardedLocations) {
  LightOptions Opts = LightOptions::both();
  LightRecorder Rec(Opts);
  GuardSpec Guards;
  Guards.Exact.push_back(loc::var(1));
  Guards.seal();
  Rec.setGuards(Guards);
  LocMeta M;
  Rec.onWrite(1, loc::var(1), M, [] {});
  Rec.onRead(2, loc::var(1), M, [] {});
  RecordingLog Log = Rec.finish();
  EXPECT_TRUE(Log.Spans.empty());
  // Counters still advanced (replay correlation preserved).
  EXPECT_EQ(Rec.counterOf(1), 1u);
  EXPECT_EQ(Rec.counterOf(2), 1u);
}

TEST(LightRecorder, SyscallsAreLoggedPerThread) {
  Driver D(LightOptions::both());
  uint64_t V = D.Rec.onSyscall(3, [] { return uint64_t(77); });
  EXPECT_EQ(V, 77u);
  RecordingLog Log = D.finish();
  ASSERT_EQ(Log.Syscalls.size(), 1u);
  EXPECT_EQ(Log.Syscalls[0].Thread, 3);
  EXPECT_EQ(Log.Syscalls[0].Value, 77u);
}

TEST(LightRecorder, SpaceAccountingMatchesSpans) {
  Driver D(LightOptions::basic());
  D.write(1);
  D.read(2);
  D.read(2, loc::var(2)); // init span on y
  RecordingLog Log = D.finish();
  EXPECT_EQ(D.Rec.longIntegersRecorded(), Log.Spans.size() * 4);
}
