//===- tests/workloads/WorkloadTest.cpp - Overhead harness tests -----------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "workloads/OverheadHarness.h"

#include "../TestPrograms.h"
#include "workloads/BusArbiter.h"

#include <gtest/gtest.h>

#include <sched.h>
#include <set>

using namespace light;
using namespace light::workloads;

namespace {

WorkloadSpec shrunk(const char *Name, int Divisor = 8) {
  const WorkloadSpec *S = findWorkload(Name);
  EXPECT_NE(S, nullptr);
  WorkloadSpec Out = *S;
  Out.OpsPerThread /= Divisor;
  Out.Threads = 4;
  return Out;
}

/// Restricts the calling thread, and every thread it spawns meanwhile, to
/// one CPU for the guard's lifetime, so the workers time-slice instead of
/// running in parallel. ok() is false when the mask could not be set.
class OneCpu {
  cpu_set_t Saved;
  bool Ok = false;

public:
  OneCpu() {
    if (sched_getaffinity(0, sizeof(Saved), &Saved) != 0)
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Saved)) {
        CPU_SET(C, &One);
        break;
      }
    Ok = sched_setaffinity(0, sizeof(One), &One) == 0;
  }
  ~OneCpu() {
    if (Ok)
      sched_setaffinity(0, sizeof(Saved), &Saved);
  }
  OneCpu(const OneCpu &) = delete;
  OneCpu &operator=(const OneCpu &) = delete;

  bool ok() const { return Ok; }
};

} // namespace

TEST(Workloads, SuiteHasThePaper24) {
  const auto &All = paperWorkloads();
  ASSERT_EQ(All.size(), 24u);
  std::set<std::string> Names;
  int JGF = 0, STAMP = 0, Server = 0, DaCapo = 0;
  for (const WorkloadSpec &S : All) {
    Names.insert(S.Name);
    JGF += S.Suite == "JGF";
    STAMP += S.Suite == "STAMP";
    Server += S.Suite == "Server";
    DaCapo += S.Suite == "DaCapo";
  }
  EXPECT_EQ(Names.size(), 24u) << "duplicate workload names";
  EXPECT_EQ(JGF, 3);
  EXPECT_EQ(STAMP, 8);
  EXPECT_EQ(Server, 7);
  EXPECT_EQ(DaCapo, 6);
  EXPECT_NE(findWorkload("cache4j"), nullptr);
  EXPECT_EQ(findWorkload("nonexistent"), nullptr);
}

TEST(Workloads, KernelIsDeterministicInOpsAndSpace) {
  WorkloadSpec Spec = shrunk("cache4j");
  Measurement A = runWorkload(Spec, Scheme::Leap);
  Measurement B = runWorkload(Spec, Scheme::Leap);
  // Leap records every access: counts are schedule-independent.
  EXPECT_EQ(A.SpaceLongs, B.SpaceLongs);
  EXPECT_EQ(A.SharedOps, B.SharedOps);
  EXPECT_GT(A.SharedOps, 1000u);
}

TEST(Workloads, LeapRecordsEveryAccessLightRecordsFewLongs) {
  // Light's volume follows how finely the threads interleave, so Figure
  // 5's shape is checked in the time-sliced single-CPU regime it was
  // calibrated on, where host load cannot move it (the parallel regime is
  // LightStaysBelowLeapWhenThreadsRunInParallel).
  WorkloadSpec Spec = shrunk("cache4j");
  OneCpu Pin;
  ASSERT_TRUE(Pin.ok()) << "could not pin the workers";
  Measurement L = runWorkload(Spec, Scheme::Light);
  Measurement P = runWorkload(Spec, Scheme::Leap);
  EXPECT_EQ(P.SpaceLongs, P.SharedOps);
  EXPECT_LT(L.SpaceLongs * 2, P.SpaceLongs)
      << "light=" << L.SpaceLongs << " leap=" << P.SpaceLongs;
}

TEST(Workloads, LightStaysBelowLeapWhenThreadsRunInParallel) {
  // Unpinned on a multicore host, cache4j's four hot locks pass most
  // acquisitions between threads and every handoff is one recorded span
  // (4 longs against Leap's 4 per critical section), so Light's log grows
  // to about half of Leap's. Handoffs are bounded by the critical
  // sections, which keeps it strictly below.
  WorkloadSpec Spec = shrunk("cache4j");
  Measurement L = runWorkload(Spec, Scheme::Light);
  Measurement P = runWorkload(Spec, Scheme::Leap);
  EXPECT_EQ(P.SpaceLongs, P.SharedOps);
  EXPECT_LT(L.SpaceLongs, P.SpaceLongs)
      << "light=" << L.SpaceLongs << " leap=" << P.SpaceLongs;
}

TEST(Workloads, AblationSpaceOrderingHolds) {
  // V_basic >= V_O1 >= V_both in recorded volume (Figure 7b's direction)
  // on a bursty, lock-heavy profile, in the same pinned regime as the
  // Figure 5 check above.
  WorkloadSpec Spec = shrunk("stamp-vacation");
  OneCpu Pin;
  ASSERT_TRUE(Pin.ok()) << "could not pin the workers";
  Measurement Basic = runWorkload(Spec, Scheme::LightBasic);
  Measurement O1 = runWorkload(Spec, Scheme::LightO1);
  Measurement Both = runWorkload(Spec, Scheme::Light);
  EXPECT_GE(Basic.SpaceLongs, O1.SpaceLongs);
  EXPECT_GT(O1.SpaceLongs, Both.SpaceLongs);
}

TEST(Workloads, RetriesAreRare) {
  // Section 2.3: "the optimistic retry loop is highly effective, yielding
  // few retries in practice".
  WorkloadSpec Spec = shrunk("dacapo-h2"); // write-heavy, worst case
  Measurement L = runWorkload(Spec, Scheme::Light);
  EXPECT_LT(L.Retries * 20, L.SharedOps)
      << "retries=" << L.Retries << " ops=" << L.SharedOps;
}

TEST(Workloads, StrideSpaceComparableToLeap) {
  WorkloadSpec Spec = shrunk("dacapo-xalan");
  Measurement P = runWorkload(Spec, Scheme::Leap);
  Measurement S = runWorkload(Spec, Scheme::Stride);
  // Paper: Leap and Stride are "largely tied in space consumption".
  EXPECT_GT(S.SpaceLongs, P.SpaceLongs / 2);
  EXPECT_LT(S.SpaceLongs, P.SpaceLongs * 3);
}

TEST(Workloads, BusArbiterIsCleanOnEverySchedule) {
  // The sync-surface stress workload: CAS tickets, monitor completion,
  // rwlock commit/sample, a barrier start line, and one timed wait. Its
  // validation asserts must hold under any interleaving.
  for (auto [Producers, Ops] : {std::pair{2, 2}, {3, 1}, {2, 3}}) {
    mir::Program P = busArbiterProgram(Producers, Ops);
    ASSERT_EQ(P.verify(), "") << P.str();
    for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
      NullHook Null;
      Machine M(P, Null);
      M.seedEnvironment(Seed ^ 0x5a5a);
      RandomScheduler Sched(Seed);
      RunResult R = M.run(Sched);
      ASSERT_TRUE(R.Completed)
          << "producers=" << Producers << " ops=" << Ops << " seed=" << Seed
          << ": " << R.Bug.str();
    }
  }
}

TEST(Workloads, BusArbiterRecordsAndReplaysFaithfully) {
  mir::Program P = busArbiterProgram(2, 2);
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    testprogs::RecordOutcome Out = Seed % 2
                                       ? testprogs::recordRun(P, Seed)
                                       : testprogs::recordRunBursty(P, Seed);
    ASSERT_TRUE(Out.Result.Completed) << Out.Result.Bug.str();
    testprogs::expectFaithfulReplay(P, Out);
  }
}
