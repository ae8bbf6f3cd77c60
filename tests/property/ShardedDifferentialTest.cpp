//===- tests/property/ShardedDifferentialTest.cpp - Shards vs monolith ----===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// Differential validation of sharded schedule construction: for random
/// RecordingLogs (from random recorded programs),
///
///   1. the monolithic solve and the 2/4/auto-sharded solves agree on
///      satisfiability,
///   2. every sharded model satisfies the full constraint system,
///   3. every sharded schedule passes the ReplayDirector's validated
///      replay — same bug correlation, same values at every use — exactly
///      like the monolithic schedule does. Sharded schedules are built the
///      way the reproduce-dense benchmark builds them (shardedSchedule in
///      TestPrograms.h).
///
/// Programs come from the shared generator (testlib/ProgramGen.h) in its
/// sharedOnly configuration — globals-only cross-thread traffic so the
/// logs span multiple locations. Honors LIGHT_TEST_SEED /
/// LIGHT_TEST_ITERS (testlib/TestEnv.h).
///
/// Runs under the TSan preset (label `san`) to also check the shard pool
/// for data races.
///
//===----------------------------------------------------------------------===//

#include "../TestPrograms.h"
#include "support/Random.h"
#include "testlib/ProgramGen.h"
#include "testlib/TestEnv.h"

#include <gtest/gtest.h>

using namespace light;
using namespace light::mir;
using namespace light::testprogs;

namespace {

class ShardedDifferential : public ::testing::TestWithParam<int> {};

} // namespace

TEST_P(ShardedDifferential, SolverAgreesAcrossShardCounts) {
  uint64_t Seed = testenv::effectiveSeed(static_cast<uint64_t>(GetParam()));
  SCOPED_TRACE(testenv::repro(Seed));
  Rng R(Seed * 0x517cc1b7ull + 3);
  Program Prog = testgen::randomProgram(R, testgen::GenConfig::sharedOnly());
  ASSERT_EQ(Prog.verify(), "") << Prog.str();
  RecordOutcome Rec = recordRun(Prog, Seed * 13 + 7);
  ASSERT_TRUE(Rec.Result.Completed) << Rec.Result.Bug.str();

  ScheduleProblem P = buildScheduleProblem(Rec.Log);
  smt::SolveResult Mono =
      smt::solveOrder(P.System, smt::SolverEngine::Idl);
  for (unsigned Shards : {2u, 4u, 0u}) {
    smt::SolveResult Sharded =
        smt::solveSharded(P.System, smt::SolverEngine::Idl, {}, Shards);
    ASSERT_EQ(Sharded.sat(), Mono.sat()) << "shards " << Shards;
    if (Sharded.sat())
      EXPECT_TRUE(P.System.satisfiedBy(Sharded.Values))
          << "shards " << Shards;
  }
}

TEST_P(ShardedDifferential, ShardedSchedulesReplayFaithfully) {
  uint64_t Seed = testenv::effectiveSeed(static_cast<uint64_t>(GetParam()));
  SCOPED_TRACE(testenv::repro(Seed));
  Rng R(Seed * 0x9e3779b9ull + 5);
  Program Prog = testgen::randomProgram(R, testgen::GenConfig::sharedOnly());
  ASSERT_EQ(Prog.verify(), "") << Prog.str();
  RecordOutcome Rec = recordRun(Prog, Seed * 29 + 11);
  ASSERT_TRUE(Rec.Result.Completed) << Rec.Result.Bug.str();

  // The sharded schedule must pass the director's validated replay —
  // same values at every use — for every shard width.
  for (unsigned Shards : {1u, 2u, 4u, 0u}) {
    SCOPED_TRACE("shards " + std::to_string(Shards));
    expectFaithfulReplayWith(Prog, Rec, shardedSchedule(Rec.Log, Shards));
  }
}

TEST_P(ShardedDifferential, SyncPrimitiveLogsShardFaithfully) {
  // Same contract over the synchronization surface: rwlock reader blocks,
  // barrier generations, timed-wait wakeups, and CAS RMWs all produce
  // ghost-location constraints that must survive shard partitioning.
  uint64_t Seed = testenv::effectiveSeed(static_cast<uint64_t>(GetParam()));
  SCOPED_TRACE(testenv::repro(Seed));
  Rng R(Seed * 0x2545f491ull + 9);
  Program Prog =
      testgen::randomProgram(R, testgen::GenConfig::syncPrimitives());
  ASSERT_EQ(Prog.verify(), "") << Prog.str();
  RecordOutcome Rec = recordRun(Prog, Seed * 17 + 3);
  ASSERT_TRUE(Rec.Result.Completed) << Rec.Result.Bug.str();

  ScheduleProblem P = buildScheduleProblem(Rec.Log);
  smt::SolveResult Mono = smt::solveOrder(P.System, smt::SolverEngine::Idl);
  for (unsigned Shards : {2u, 0u}) {
    smt::SolveResult Sharded =
        smt::solveSharded(P.System, smt::SolverEngine::Idl, {}, Shards);
    ASSERT_EQ(Sharded.sat(), Mono.sat()) << "shards " << Shards;
    if (Sharded.sat())
      EXPECT_TRUE(P.System.satisfiedBy(Sharded.Values))
          << "shards " << Shards;
  }
  for (unsigned Shards : {1u, 2u, 0u}) {
    SCOPED_TRACE("shards " + std::to_string(Shards));
    expectFaithfulReplayWith(Prog, Rec, shardedSchedule(Rec.Log, Shards));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedDifferential,
                         ::testing::Range(1, 1 + testenv::iters(15)));
