//===- tests/analysis/AnalysisTest.cpp - Static analysis tests ------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "analysis/LocksetAnalysis.h"
#include "analysis/RaceDetector.h"
#include "analysis/SharedAccessAnalysis.h"

#include "../TestPrograms.h"

#include <gtest/gtest.h>

using namespace light;
using namespace light::analysis;
using namespace light::testprogs;

TEST(SharedAccess, WorkerGlobalsAreShared) {
  mir::Program P = counterRace(3, 5);
  SharedAccessStats Stats = markSharedAccesses(P);
  EXPECT_GT(Stats.InstrumentedSites, 0u);
  // Every access to the contended counter global stays instrumented.
  for (const mir::Function &F : P.Functions)
    for (const mir::Instr &I : F.Body)
      if (I.Op == mir::Opcode::GetGlobal || I.Op == mir::Opcode::PutGlobal)
        EXPECT_TRUE(I.SharedAccess);
}

TEST(SharedAccess, MainOnlyDataIsSuppressed) {
  // A program where main computes over a private global before spawning
  // nothing: all accesses are provably unshared.
  mir::ProgramBuilder PB;
  uint32_t G = PB.addGlobal("private");
  mir::FunctionBuilder FB = PB.beginFunction("main", 0);
  mir::Reg V = FB.newReg();
  FB.constInt(V, 42);
  FB.putGlobal(G, V);
  FB.getGlobal(V, G);
  FB.print(V);
  FB.ret();
  PB.setEntry(PB.endFunction(FB));
  mir::Program P = PB.take();

  SharedAccessStats Stats = markSharedAccesses(P);
  EXPECT_EQ(Stats.InstrumentedSites, 0u);
  EXPECT_EQ(Stats.SuppressedSites, 2u);
}

TEST(SharedAccess, SuppressedProgramStillReplaysFaithfully) {
  mir::Program P = lockedCounter(3, 5);
  markSharedAccesses(P);
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    RecordOutcome Rec = recordRun(P, Seed);
    ASSERT_TRUE(Rec.Result.Completed) << Rec.Result.Bug.str();
    expectFaithfulReplay(P, Rec);
  }
}

TEST(Lockset, LockedCounterIsConsistentlyGuarded) {
  mir::Program P = lockedCounter(3, 5);
  markSharedAccesses(P);
  LocksetAnalysis LA(P);
  ASSERT_EQ(LA.numLocks(), 1u);
  GuardSpec Spec = LA.consistentlyGuarded();
  // The counter global (id 0) is guarded: every worker access holds the
  // lock, and main's final read happens after all joins (solo).
  EXPECT_FALSE(Spec.empty());
  EXPECT_TRUE(Spec.covers(loc::var(0)));
  // The lock-holding global itself is written by main unlocked: not
  // guarded.
  EXPECT_FALSE(Spec.covers(loc::var(1)));
}

TEST(Lockset, RacyCounterIsNotGuarded) {
  mir::Program P = counterRace(3, 5);
  markSharedAccesses(P);
  LocksetAnalysis LA(P);
  GuardSpec Spec = LA.consistentlyGuarded();
  EXPECT_FALSE(Spec.covers(loc::var(0)));
}

TEST(Lockset, O2ReplayWithRealGuardsIsFaithful) {
  // End-to-end O2: analysis-provided guards, V_both recording, validated
  // replay (Lemma 4.2).
  mir::Program P = lockedCounter(4, 6);
  markSharedAccesses(P);
  LocksetAnalysis LA(P);
  GuardSpec Spec = LA.consistentlyGuarded();
  ASSERT_TRUE(Spec.covers(loc::var(0)));

  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    LightOptions Opts; // V_both
    LightRecorder Rec(Opts);
    Rec.setGuards(Spec);
    Machine M(P, Rec);
    RandomScheduler Sched(Seed);
    RecordOutcome Out;
    Out.Result = M.run(Sched);
    ASSERT_TRUE(Out.Result.Completed) << Out.Result.Bug.str();
    Out.Log = Rec.finish(&M.registry());
    expectFaithfulReplay(P, Out);

    // O2 must actually reduce the log relative to V_O1 on this program.
    LightRecorder RecO1(LightOptions::o1Only());
    Machine M2(P, RecO1);
    RandomScheduler Sched2(Seed);
    RunResult R2 = M2.run(Sched2);
    ASSERT_TRUE(R2.Completed);
    RecordingLog LogO1 = RecO1.finish(&M2.registry());
    EXPECT_LT(Out.Log.spaceLongs(), LogO1.spaceLongs());
  }
}

TEST(RaceDetector, FindsTheRacyPair) {
  mir::Program P = racyNull();
  markSharedAccesses(P);
  LocksetAnalysis LA(P);
  std::vector<RacePair> Races = detectRaces(P, LA);
  // writer's putfield vs reader's getfield on Box field 0 must be reported.
  bool Found = false;
  for (const RacePair &R : Races) {
    const std::string &NA = P.Functions[R.A.Func].Name;
    const std::string &NB = P.Functions[R.B.Func].Name;
    if ((NA == "writer" && NB == "reader") ||
        (NA == "reader" && NB == "writer"))
      Found = true;
  }
  EXPECT_TRUE(Found);
}

TEST(RaceDetector, LockedProgramHasNoFieldRaces) {
  mir::Program P = lockedCounter(3, 5);
  markSharedAccesses(P);
  LocksetAnalysis LA(P);
  std::vector<RacePair> Races = detectRaces(P, LA);
  for (const RacePair &R : Races)
    EXPECT_NE(R.Abstraction, (1ull << 62) | 0u)
        << "counter global flagged racy despite consistent locking: "
        << R.What;
}
