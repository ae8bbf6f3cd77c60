//===- tests/runtime/RuntimeTest.cpp - Runtime substrate tests -------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "core/ReplaySchedule.h"
#include "runtime/Runtime.h"
#include "runtime/ThreadRegistry.h"
#include "runtime/TotalOrderDirector.h"

#include <gtest/gtest.h>

#include <atomic>

using namespace light;

TEST(ThreadRegistry, AssignsSequentialIdsInRecordMode) {
  ThreadRegistry R;
  EXPECT_EQ(R.registerSpawn(0), 1);
  EXPECT_EQ(R.registerSpawn(0), 2);
  EXPECT_EQ(R.registerSpawn(1), 3);
  EXPECT_EQ(R.numThreads(), 4);
  std::vector<SpawnRecord> Table = R.spawnTable();
  ASSERT_EQ(Table.size(), 3u);
  EXPECT_EQ(Table[0].Parent, 0);
  EXPECT_EQ(Table[0].SpawnIndex, 0u);
  EXPECT_EQ(Table[0].Child, 1);
  EXPECT_EQ(Table[2].Parent, 1);
}

TEST(ThreadRegistry, ReplayModeReproducesIds) {
  // The recorded structure maps (parent, spawn index) to fixed children
  // regardless of the global spawn order in the replay run.
  std::vector<SpawnRecord> Recorded = {{0, 0, 5}, {0, 1, 2}, {5, 0, 9}};
  ThreadRegistry R;
  R.loadForReplay(Recorded);
  EXPECT_EQ(R.registerSpawn(0), 5);
  EXPECT_EQ(R.registerSpawn(5), 9); // interleaved differently: same ids
  EXPECT_EQ(R.registerSpawn(0), 2);
  // An unrecorded spawn is a divergence signal (0).
  EXPECT_EQ(R.registerSpawn(0), 0);
}

TEST(Runtime, SpawnJoinCarriesGhostEdges) {
  NullHook Hook;
  Runtime RT(Hook);
  std::atomic<int> Ran{0};
  Runtime::Handle H = RT.spawn(Runtime::MainThread, [&](ThreadId Self) {
    EXPECT_EQ(Self, 1);
    Ran.fetch_add(1);
  });
  RT.join(Runtime::MainThread, H);
  EXPECT_EQ(Ran.load(), 1);
  // Ghost accesses: child start-read + term-write = 2 counted accesses,
  // plus the body; main's spawn write + join read = 2.
  EXPECT_EQ(Hook.counterOf(0), 2u);
  EXPECT_EQ(Hook.counterOf(1), 2u);
}

TEST(SharedVar, ReadsAndWritesThroughTheHook) {
  NullHook Hook;
  Runtime RT(Hook);
  SharedVar V(/*Id=*/42, /*Initial=*/7);
  EXPECT_EQ(V.read(RT, 0), 7);
  V.write(RT, 0, 99);
  EXPECT_EQ(V.read(RT, 0), 99);
  EXPECT_EQ(V.peek(), 99);
  EXPECT_EQ(Hook.counterOf(0), 3u);
  EXPECT_EQ(loc::kindOf(V.location()), LocationKind::Var);
}

TEST(TotalOrderDirector, EnforcesTheGivenOrder) {
  // Order: (t1,1) (t2,1) (t1,2). Accesses arriving in order succeed.
  std::vector<AccessId> Order = {AccessId(1, 1), AccessId(2, 1),
                                 AccessId(1, 2)};
  TotalOrderDirector D(Order, {});
  LocMeta M;
  D.onWrite(1, loc::var(1), M, [] {});
  EXPECT_FALSE(D.failed());
  D.onRead(2, loc::var(1), M, [] {});
  D.onWrite(1, loc::var(1), M, [] {});
  EXPECT_TRUE(D.complete());
}

TEST(TotalOrderDirector, DivergesOutOfOrderInCooperativeMode) {
  std::vector<AccessId> Order = {AccessId(1, 1), AccessId(2, 1)};
  TotalOrderDirector D(Order, {});
  LocMeta M;
  // Thread 2 arrives first: its turn is 1, current turn is 0.
  D.onRead(2, loc::var(1), M, [] {});
  EXPECT_TRUE(D.failed());
}

TEST(TotalOrderDirector, PermissivePastHorizon) {
  std::vector<AccessId> Order = {AccessId(1, 1)};
  TotalOrderDirector D(Order, {});
  LocMeta M;
  D.onWrite(1, loc::var(1), M, [] {});
  // Counter 2 exceeds thread 1's recorded horizon: runs unvalidated.
  bool Performed = false;
  D.onWrite(1, loc::var(1), M, [&] { Performed = true; });
  EXPECT_TRUE(Performed);
  EXPECT_FALSE(D.failed());
}

TEST(TotalOrderDirector, SubstitutesRecordedSyscalls) {
  TotalOrderDirector D({}, {{}, {11, 22}});
  EXPECT_EQ(D.onSyscall(1, [] { return uint64_t(0); }), 11u);
  EXPECT_EQ(D.onSyscall(1, [] { return uint64_t(0); }), 22u);
  // Exhausted: computes fresh.
  EXPECT_EQ(D.onSyscall(1, [] { return uint64_t(5); }), 5u);
}

TEST(ReplaySchedule, MalformedLogIsRejectedNotCrashed) {
  // A log whose dependences are cyclic (impossible in a real recording)
  // must yield a clean unsatisfiable verdict.
  RecordingLog Log;
  DepSpan A;
  A.Loc = loc::var(1);
  A.Src = AccessId(2, 2);
  A.Thread = 1;
  A.First = 1;
  A.Last = 1;
  A.Kind = SpanKind::Read;
  DepSpan B;
  B.Loc = loc::var(2);
  B.Src = AccessId(1, 1);
  B.Thread = 2;
  B.First = 2;
  B.Last = 2;
  B.Kind = SpanKind::Read;
  // (t2,2) -> (t1,1) and (t1,1) -> (t2,2): a dependence cycle.
  Log.Spans = {A, B};
  Log.FinalCounters = {0, 1, 2};
  ReplaySchedule RS = ReplaySchedule::build(Log);
  EXPECT_FALSE(RS.ok());
  EXPECT_FALSE(RS.error().empty());
}
