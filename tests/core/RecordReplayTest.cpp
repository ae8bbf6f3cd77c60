//===- tests/core/RecordReplayTest.cpp - End-to-end replay tests ----------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// Integration tests of the full pipeline on MIR programs: record under a
/// random schedule with LightRecorder, build + solve the constraint system,
/// replay under the ReplayDirector with validation, and check Theorem 1's
/// guarantee — the same value arises at every use (per-thread outputs and
/// bug correlation are identical).
///
//===----------------------------------------------------------------------===//

#include "../TestPrograms.h"

#include <gtest/gtest.h>

using namespace light;
using namespace light::testprogs;

TEST(RecordReplay, RacyNullManySeeds) {
  mir::Program Prog = racyNull();
  ASSERT_EQ(Prog.verify(), "");
  int Buggy = 0, Clean = 0;
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    RecordOutcome Rec = recordRun(Prog, Seed);
    if (Rec.Result.Bug.happened())
      ++Buggy;
    else
      ++Clean;
    expectFaithfulReplay(Prog, Rec);
  }
  // The race must actually manifest in some schedules and not in others;
  // otherwise the test is vacuous.
  EXPECT_GT(Buggy, 0);
  EXPECT_GT(Clean, 0);
}

TEST(RecordReplay, CounterRaceValueDeterminism) {
  mir::Program Prog = counterRace(3, 6);
  ASSERT_EQ(Prog.verify(), "");
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    RecordOutcome Rec = recordRun(Prog, Seed);
    ASSERT_TRUE(Rec.Result.Completed) << Rec.Result.Bug.str();
    expectFaithfulReplay(Prog, Rec);
  }
}

TEST(RecordReplay, CounterRaceSchedulesActuallyDiffer) {
  // Sanity: different seeds produce different interleavings (different
  // printed value sequences), so the faithful replays above are nontrivial.
  mir::Program Prog = counterRace(3, 6);
  RecordOutcome A = recordRun(Prog, 1);
  bool AnyDifferent = false;
  for (uint64_t Seed = 2; Seed <= 10 && !AnyDifferent; ++Seed) {
    RecordOutcome B = recordRun(Prog, Seed);
    if (B.Result.OutputByThread != A.Result.OutputByThread)
      AnyDifferent = true;
  }
  EXPECT_TRUE(AnyDifferent);
}

TEST(RecordReplay, LockedCounter) {
  mir::Program Prog = lockedCounter(4, 5);
  ASSERT_EQ(Prog.verify(), "");
  for (uint64_t Seed = 1; Seed <= 15; ++Seed) {
    RecordOutcome Rec = recordRun(Prog, Seed);
    ASSERT_TRUE(Rec.Result.Completed) << Rec.Result.Bug.str();
    // With locks the final count is always Workers * Reps.
    EXPECT_EQ(Rec.Result.OutputByThread[0], "20\n");
    expectFaithfulReplay(Prog, Rec);
  }
}

TEST(RecordReplay, WaitNotify) {
  mir::Program Prog = waitNotify(5);
  ASSERT_EQ(Prog.verify(), "");
  for (uint64_t Seed = 1; Seed <= 15; ++Seed) {
    RecordOutcome Rec = recordRun(Prog, Seed);
    ASSERT_TRUE(Rec.Result.Completed) << Rec.Result.Bug.str();
    // The consumer always sees 0..4 in order (mailbox protocol).
    EXPECT_EQ(Rec.Result.OutputByThread[2], "0\n1\n2\n3\n4\n");
    expectFaithfulReplay(Prog, Rec);
  }
}

TEST(RecordReplay, AllOptimizationVariantsAreFaithful) {
  // Theorem 1 must hold for V_basic, V_O1 and V_both alike (the
  // optimizations shrink the log, not the guarantee).
  for (const LightOptions &Opts :
       {LightOptions::basic(), LightOptions::o1Only(), LightOptions::both()}) {
    for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
      mir::Program P1 = counterRace(3, 5);
      RecordOutcome Rec = recordRun(P1, Seed, Opts);
      ASSERT_TRUE(Rec.Result.Completed);
      expectFaithfulReplay(P1, Rec);

      mir::Program P2 = racyNull();
      RecordOutcome Rec2 = recordRun(P2, Seed, Opts);
      expectFaithfulReplay(P2, Rec2);
    }
  }
}

TEST(RecordReplay, O1ShrinksTheLogUnderBurstySchedules) {
  // The Figure 2 access pattern: long uninterleaved per-thread runs. O1
  // (Lemma 4.3) compresses each run into one span, so the log must shrink
  // substantially relative to V_basic on the same schedule; replay must
  // stay faithful for both.
  mir::Program Prog = counterRace(2, 30);
  RecordOutcome Basic = recordRunBursty(Prog, 3, LightOptions::basic());
  RecordOutcome WithO1 = recordRunBursty(Prog, 3, LightOptions::o1Only());
  EXPECT_LT(WithO1.Log.spaceLongs(), Basic.Log.spaceLongs());
  expectFaithfulReplay(Prog, Basic);
  expectFaithfulReplay(Prog, WithO1);
}

TEST(RecordReplay, BurstyRepliesAreFaithfulAcrossSeeds) {
  mir::Program Prog = counterRace(3, 10);
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    RecordOutcome Rec = recordRunBursty(Prog, Seed);
    ASSERT_TRUE(Rec.Result.Completed) << Rec.Result.Bug.str();
    expectFaithfulReplay(Prog, Rec);
  }
}

TEST(RecordReplay, Z3EngineReplaysToo) {
  mir::Program Prog = counterRace(2, 4);
  RecordOutcome Rec = recordRun(Prog, 7);
  ASSERT_TRUE(Rec.Result.Completed);
  expectFaithfulReplay(Prog, Rec, smt::SolverEngine::Z3);
}

TEST(RecordReplay, LogRoundTripsThroughDisk) {
  mir::Program Prog = counterRace(2, 4);
  RecordOutcome Rec = recordRun(Prog, 11);
  std::string Path = makeTempPath("roundtrip");
  ASSERT_GT(Rec.Log.saveCompact(Path), 0u);
  RecordingLog Loaded;
  ASSERT_TRUE(Loaded.load(Path));
  ASSERT_EQ(Loaded.Spans.size(), Rec.Log.Spans.size());
  for (size_t I = 0; I < Loaded.Spans.size(); ++I)
    EXPECT_EQ(Loaded.Spans[I], Rec.Log.Spans[I]);
  // Replaying from the loaded log must be just as faithful.
  RecordOutcome FromDisk{Rec.Result, Loaded};
  expectFaithfulReplay(Prog, FromDisk);
  std::remove(Path.c_str());
}

TEST(RecordReplay, ReplayFeasibilityLemma41) {
  // Lemma 4.1: the constraint system of any recorded run is satisfiable.
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    mir::Program Prog = counterRace(3, 5);
    RecordOutcome Rec = recordRun(Prog, Seed);
    ReplaySchedule RS = ReplaySchedule::build(Rec.Log);
    EXPECT_TRUE(RS.ok()) << "seed " << Seed << ": " << RS.error();
  }
}
