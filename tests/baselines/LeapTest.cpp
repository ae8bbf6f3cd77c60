//===- tests/baselines/LeapTest.cpp - Leap baseline tests ------------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "baselines/LeapRecorder.h"
#include "baselines/LeapReplayer.h"
#include "core/LightRecorder.h"

#include "../TestPrograms.h"

#include <gtest/gtest.h>

using namespace light;
using namespace light::testprogs;

namespace {

struct LeapOutcome {
  RunResult Result;
  LeapLog Log;
  std::vector<SpawnRecord> Spawns;
};

LeapOutcome leapRecord(const mir::Program &P, uint64_t Seed) {
  LeapRecorder Rec;
  Machine M(P, Rec);
  M.seedEnvironment(Seed ^ 0x5a5a);
  RandomScheduler Sched(Seed);
  LeapOutcome Out;
  Out.Result = M.run(Sched);
  Out.Log = Rec.finish();
  Out.Spawns = M.registry().spawnTable();
  return Out;
}

RunResult leapReplay(const mir::Program &P, const LeapOutcome &Rec) {
  LeapOrder Order = linearizeLeapLog(Rec.Log);
  EXPECT_TRUE(Order.Ok) << Order.Error;
  TotalOrderDirector Director(Order.Order, Order.SyscallValues);
  Machine M(P, Director);
  M.prepareReplay(Rec.Spawns);
  RunResult R = M.runReplay(Director);
  EXPECT_FALSE(Director.failed()) << Director.divergence();
  return R;
}

} // namespace

TEST(Leap, ReplaysRacyCounterFaithfully) {
  mir::Program P = counterRace(3, 6);
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    LeapOutcome Rec = leapRecord(P, Seed);
    ASSERT_TRUE(Rec.Result.Completed) << Rec.Result.Bug.str();
    RunResult Rep = leapReplay(P, Rec);
    EXPECT_EQ(Rec.Result.OutputByThread, Rep.OutputByThread);
  }
}

TEST(Leap, ReproducesTheRacyNullBug) {
  mir::Program P = racyNull();
  int Buggy = 0;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    LeapOutcome Rec = leapRecord(P, Seed);
    RunResult Rep = leapReplay(P, Rec);
    EXPECT_TRUE(Rec.Result.Bug.sameAs(Rep.Bug))
        << "recorded " << Rec.Result.Bug.str() << "\nreplayed "
        << Rep.Bug.str();
    if (Rec.Result.Bug.happened())
      ++Buggy;
  }
  EXPECT_GT(Buggy, 0);
}

TEST(Leap, RecordsOneLongPerAccess) {
  mir::Program P = counterRace(2, 10);
  LeapOutcome Rec = leapRecord(P, 3);
  // Every shared access of the run lands in exactly one access vector.
  EXPECT_EQ(Rec.Log.spaceLongs(), Rec.Result.SharedAccesses);
}

TEST(Leap, SpaceIsFarAboveLights) {
  // The core space claim of Figure 5: Light records a small fraction of
  // Leap's long integers on burst-friendly runs.
  mir::Program P = counterRace(3, 40);
  LeapRecorder Leap;
  {
    Machine M(P, Leap);
    BurstScheduler Sched(7, 64);
    ASSERT_TRUE(M.run(Sched).Completed);
  }
  LightOptions Opts;
  LightRecorder Light(Opts);
  {
    Machine M(P, Light);
    BurstScheduler Sched(7, 64);
    ASSERT_TRUE(M.run(Sched).Completed);
  }
  uint64_t LeapLongs = Leap.longIntegersRecorded();
  uint64_t LightLongs = Light.longIntegersRecorded();
  EXPECT_LT(LightLongs * 2, LeapLongs)
      << "light=" << LightLongs << " leap=" << LeapLongs;
}

TEST(Leap, LinearizationRespectsPerLocationOrder) {
  mir::Program P = lockedCounter(3, 5);
  LeapOutcome Rec = leapRecord(P, 5);
  LeapOrder Order = linearizeLeapLog(Rec.Log);
  ASSERT_TRUE(Order.Ok);
  // Positions in the total order must respect every per-location vector.
  std::unordered_map<uint64_t, size_t> Pos;
  for (size_t I = 0; I < Order.Order.size(); ++I)
    Pos[Order.Order[I].pack()] = I;
  for (const auto &[L, V] : Rec.Log.AccessVectors)
    for (size_t I = 1; I < V.size(); ++I)
      EXPECT_LT(Pos[V[I - 1]], Pos[V[I]]);
}
