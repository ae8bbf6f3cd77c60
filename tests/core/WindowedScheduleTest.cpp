//===- tests/core/WindowedScheduleTest.cpp - Windowed solving tests --------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// The windowed incremental solver (core/WindowedSchedule.h): a windowed
/// order must satisfy the monolithic constraint system (position-as-value
/// through OrderSystem::satisfiedBy), builds that cannot be completed must
/// fail with the structured WindowTooSmall error rather than produce a
/// wrong schedule, the disk-spill path must equal the in-memory path, and
/// the topological drain must tolerate the per-thread batch skew real
/// epoch streams have.
///
//===----------------------------------------------------------------------===//

#include "../TestPrograms.h"
#include "core/ConstraintGen.h"
#include "core/WindowedSchedule.h"
#include "support/BinaryIO.h"
#include "trace/SegmentReader.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

using namespace light;
using namespace light::testprogs;

namespace {

DepSpan mkSpan(ThreadId T, LocationId L, Counter First, Counter Last,
               SpanKind K, AccessId Src = AccessId()) {
  DepSpan S;
  S.Thread = T;
  S.Loc = L;
  S.First = First;
  S.Last = Last;
  S.Kind = K;
  S.Src = Src;
  return S;
}

/// Runs a windowed build over \p Log and, on success, checks the order
/// against the monolithic system. Returns whether the build succeeded.
bool buildAndCheck(const RecordingLog &Log, size_t WindowSpans,
                   const std::string &SpillPath = std::string()) {
  WindowedOptions WO;
  WO.WindowSpans = WindowSpans;
  WO.SpillPath = SpillPath;
  WindowedScheduleBuilder B(WO);
  B.addSpans(Log);
  if (!B.finish()) {
    // A refusal must be structured and explained.
    EXPECT_TRUE(B.tooSmall().fired()) << B.error();
    EXPECT_FALSE(B.error().empty());
    return false;
  }
  std::vector<AccessId> Order = B.solvedOrder();
  EXPECT_EQ(Order.size(), B.orderSize());

  ScheduleProblem P = buildScheduleProblem(Log);
  EXPECT_EQ(Order.size(), P.VarAccess.size())
      << "windowed build names a different variable set";
  std::vector<int64_t> Values(P.System.numVars(), 0);
  for (size_t I = 0; I < Order.size(); ++I) {
    smt::Var V = P.varOf(Order[I]);
    if (V == ~0u) {
      ADD_FAILURE() << "windowed order names unknown access "
                    << Order[I].str();
      return true;
    }
    Values[V] = static_cast<int64_t>(I);
  }
  EXPECT_TRUE(P.System.satisfiedBy(Values))
      << "windowed order violates the monolithic constraint system";
  return true;
}

/// A synthetic two-thread ping-pong stream (the bench_scale shape): spans
/// arrive in emission order, per-thread monotone, every source the newest
/// write. Valid to window at any size.
RecordingLog pingPongLog(int Rounds) {
  RecordingLog Log;
  LocationId X = loc::var(42);
  Counter C0 = 0, C1 = 0;
  Log.Spans.push_back(mkSpan(0, X, C0 + 1, C0 + 4, SpanKind::Own));
  C0 += 4;
  for (int R = 0; R < Rounds; ++R) {
    Log.Spans.push_back(
        mkSpan(1, X, C1 + 1, C1 + 1, SpanKind::Read, AccessId(0, C0)));
    Log.Spans.push_back(mkSpan(1, X, C1 + 2, C1 + 5, SpanKind::Own));
    C1 += 5;
    Log.Spans.push_back(
        mkSpan(0, X, C0 + 1, C0 + 1, SpanKind::Read, AccessId(1, C1)));
    Log.Spans.push_back(mkSpan(0, X, C0 + 2, C0 + 5, SpanKind::Own));
    C0 += 5;
  }
  Log.FinalCounters = {C0, C1};
  return Log;
}

} // namespace

TEST(WindowedSchedule, OneWindowMatchesMonolithic) {
  for (uint64_t Seed : {3u, 17u, 91u}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    RecordingLog Log = recordRun(counterRace(3, 6), Seed).Log;
    ASSERT_FALSE(Log.Spans.empty());
    // A window at least as large as the trace must always succeed.
    EXPECT_TRUE(buildAndCheck(Log, Log.Spans.size() + 1));
  }
}

TEST(WindowedSchedule, SmallWindowsSucceedOrRefuseStructurally) {
  for (uint64_t Seed : {5u, 29u}) {
    RecordingLog Log = recordRunBursty(counterRace(3, 8), Seed).Log;
    for (size_t W : {size_t(1), size_t(4), size_t(16)}) {
      SCOPED_TRACE("seed " + std::to_string(Seed) + " window " +
                   std::to_string(W));
      buildAndCheck(Log, W); // either outcome is fine; wrongness is not
    }
  }
}

TEST(WindowedSchedule, PingPongWindowsAtEverySize) {
  RecordingLog Log = pingPongLog(20);
  for (size_t W : {size_t(1), size_t(3), size_t(8), size_t(1000)}) {
    SCOPED_TRACE("window " + std::to_string(W));
    EXPECT_TRUE(buildAndCheck(Log, W))
        << "the monotone ping-pong stream must window at any size";
  }
}

TEST(WindowedSchedule, SpillPathEqualsInMemoryPath) {
  RecordingLog Log = pingPongLog(12);
  WindowedOptions InMem;
  InMem.WindowSpans = 8;
  WindowedScheduleBuilder A(InMem);
  A.addSpans(Log);
  ASSERT_TRUE(A.finish()) << A.error();
  ASSERT_GT(A.windowsSolved(), 1u);

  WindowedOptions OnDisk = InMem;
  OnDisk.SpillPath = makeTempPath("windowed-spill");
  WindowedScheduleBuilder B(OnDisk);
  B.addSpans(Log);
  ASSERT_TRUE(B.finish()) << B.error();

  std::vector<AccessId> MemOrder = A.solvedOrder();
  std::vector<AccessId> DiskOrder = B.solvedOrder();
  ASSERT_EQ(MemOrder.size(), DiskOrder.size());
  for (size_t I = 0; I < MemOrder.size(); ++I)
    EXPECT_EQ(MemOrder[I], DiskOrder[I]) << "position " << I;
  std::remove(OnDisk.SpillPath.c_str());
}

TEST(WindowedSchedule, StragglerSpanRefusesStructurally) {
  WindowedOptions WO;
  WO.WindowSpans = 1;
  WindowedScheduleBuilder B(WO);
  RecordingLog Log;
  Log.Spans.push_back(mkSpan(0, loc::var(1), 10, 12, SpanKind::Own));
  ASSERT_TRUE(B.addSpans(Log)); // solves and freezes counters 10..12
  Log.Spans.push_back(mkSpan(0, loc::var(2), 2, 5, SpanKind::Own));
  B.addSpans(Log);
  B.finish();
  EXPECT_FALSE(B.ok());
  EXPECT_EQ(B.tooSmall().What, WindowTooSmall::Kind::StragglerSpan)
      << B.error();
  EXPECT_NE(B.error().find("frozen horizon"), std::string::npos);
}

TEST(WindowedSchedule, StaleSourceRefusesStructurally) {
  WindowedOptions WO;
  WO.WindowSpans = 1;
  WindowedScheduleBuilder B(WO);
  LocationId X = loc::var(7);
  RecordingLog Log;
  Log.Spans.push_back(mkSpan(0, X, 1, 3, SpanKind::Own));
  ASSERT_TRUE(B.addSpans(Log)); // freezes (t0,3) as newest write
  Log.Spans.push_back(mkSpan(1, X, 1, 3, SpanKind::Own));
  ASSERT_TRUE(B.addSpans(Log)); // (t1,3) becomes the newest frozen write
  // Reading the older frozen write can no longer be honored.
  Log.Spans.push_back(
      mkSpan(2, X, 1, 1, SpanKind::Read, AccessId(0, 3)));
  B.addSpans(Log);
  B.finish();
  EXPECT_FALSE(B.ok());
  EXPECT_EQ(B.tooSmall().What, WindowTooSmall::Kind::StaleSource)
      << B.error();
}

TEST(WindowedSchedule, InitAfterFrozenWriteRefusesStructurally) {
  WindowedOptions WO;
  WO.WindowSpans = 1;
  WindowedScheduleBuilder B(WO);
  LocationId X = loc::var(9);
  RecordingLog Log;
  Log.Spans.push_back(mkSpan(0, X, 1, 4, SpanKind::Own));
  ASSERT_TRUE(B.addSpans(Log));
  Log.Spans.push_back(mkSpan(1, X, 1, 2, SpanKind::Init));
  B.addSpans(Log);
  B.finish();
  EXPECT_FALSE(B.ok());
  EXPECT_EQ(B.tooSmall().What, WindowTooSmall::Kind::InitAfterWrite)
      << B.error();
}

TEST(WindowedSchedule, FinishForceDrainsUnresolvableSources) {
  // A torn log can reference a source whose covering span never arrives;
  // the drain must hold the reader back during streaming but release it at
  // finish() (free source variable, as in the monolithic build).
  WindowedOptions WO;
  WO.WindowSpans = 1;
  WindowedScheduleBuilder B(WO);
  RecordingLog Log;
  Log.Spans.push_back(
      mkSpan(0, loc::var(3), 1, 2, SpanKind::Read, AccessId(9, 50)));
  ASSERT_TRUE(B.addSpans(Log));
  EXPECT_EQ(B.windowsSolved(), 0u)
      << "the gated span must not solve before its source arrives";
  ASSERT_TRUE(B.finish()) << B.error();
  std::vector<AccessId> Order = B.solvedOrder();
  ASSERT_EQ(Order.size(), 3u); // src, first, last
  size_t SrcPos = 0, FirstPos = 0;
  for (size_t I = 0; I < Order.size(); ++I) {
    if (Order[I] == AccessId(9, 50))
      SrcPos = I;
    if (Order[I] == AccessId(0, 1))
      FirstPos = I;
  }
  EXPECT_LT(SrcPos, FirstPos) << "source must stay before its reader";
}

TEST(WindowedSchedule, StreamedEpochLogReplaysFaithfully) {
  // The full pipeline on a real recording: compressed epoch log on disk,
  // streamed back segment by segment (per-thread batch skew included),
  // windowed solve, then a validated replay of the resulting schedule.
  std::string Path = makeTempPath("windowed-epochs");
  mir::Program Prog = counterRace(3, 6);
  LightOptions Opts;
  Opts.EpochSpans = 4;
  Opts.DurableLogPath = Path;
  RecordOutcome Rec = recordRun(Prog, 13, Opts);
  ASSERT_FALSE(Rec.Log.Spans.empty());

  TraceSegmentReader Reader(Path);
  ASSERT_TRUE(Reader.ok()) << Reader.report().Error;
  WindowedOptions WO;
  WO.WindowSpans = Rec.Log.Spans.size() + 1;
  WindowedScheduleBuilder B(WO);
  RecordingLog Streamed;
  while (Reader.next(Streamed) && B.addSpans(Streamed))
    ;
  Reader.finish(Streamed);
  B.addSpans(Streamed);
  ASSERT_TRUE(B.finish()) << B.error();
  EXPECT_TRUE(Reader.report().CleanClose);

  ReplaySchedule RS = B.takeSchedule(Streamed);
  ASSERT_TRUE(RS.ok()) << RS.error();
  ReplayDirector Director(RS, /*RealThreads=*/false, /*Validate=*/true);
  Machine M(Prog, Director);
  M.prepareReplay(Streamed.Spawns);
  RunResult Replayed = M.runReplay(Director);
  EXPECT_FALSE(Director.failed()) << Director.divergence();
  EXPECT_EQ(Rec.Result.Completed, Replayed.Completed);
  EXPECT_TRUE(Rec.Result.Bug.sameAs(Replayed.Bug))
      << "recorded: " << Rec.Result.Bug.str()
      << "\nreplayed: " << Replayed.Bug.str();
  std::remove(Path.c_str());
}
