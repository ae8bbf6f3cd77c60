//===- tests/baselines/StrideTest.cpp - Stride baseline tests --------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "baselines/StrideRecorder.h"
#include "core/LightRecorder.h"

#include "../TestPrograms.h"

#include <gtest/gtest.h>

using namespace light;
using namespace light::testprogs;

TEST(Stride, LinkageMatchesLightsDependences) {
  // Ground truth: record the same schedule twice, once with Stride and
  // once with Light (V_basic so every first-read dependence is explicit).
  // Every Light dependence (read -> source write) must agree with Stride's
  // reconstructed bounded linkage.
  mir::Program P = counterRace(3, 8);
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    StrideRecorder Stride;
    {
      Machine M(P, Stride);
      RandomScheduler Sched(Seed);
      ASSERT_TRUE(M.run(Sched).Completed);
    }
    StrideLog SLog = Stride.finish();
    StrideLinkage Linkage = StrideRecorder::reconstruct(SLog);

    LightRecorder Light(LightOptions::basic());
    {
      Machine M(P, Light);
      RandomScheduler Sched(Seed);
      ASSERT_TRUE(M.run(Sched).Completed);
    }
    RecordingLog LLog = Light.finish();

    int Checked = 0;
    for (const DepSpan &S : LLog.Spans) {
      if (S.Kind != SpanKind::Read)
        continue;
      auto It = Linkage.SourceOf.find(S.first().pack());
      if (It == Linkage.SourceOf.end())
        continue;
      EXPECT_EQ(AccessId::unpack(It->second), S.Src)
          << "span " << S.str() << " disagrees with Stride linkage";
      ++Checked;
    }
    EXPECT_GT(Checked, 0) << "no overlapping dependences to check";
  }
}

TEST(Stride, InitReadsLinkToVersionZero) {
  mir::Program P = counterRace(2, 3);
  StrideRecorder Stride;
  {
    Machine M(P, Stride);
    FifoScheduler Sched;
    ASSERT_TRUE(M.run(Sched).Completed);
  }
  StrideLog Log = Stride.finish();
  StrideLinkage Linkage = StrideRecorder::reconstruct(Log);
  // At least one read observed the initial (version 0) value of the
  // counter global.
  bool SawInit = false;
  for (const auto &[Reader, Src] : Linkage.SourceOf)
    if (Src == 0)
      SawInit = true;
  EXPECT_TRUE(SawInit);
}

TEST(Stride, SpaceComparableToLeapAndAboveLight) {
  mir::Program P = counterRace(3, 30);
  StrideRecorder Stride;
  {
    Machine M(P, Stride);
    BurstScheduler Sched(11, 64);
    ASSERT_TRUE(M.run(Sched).Completed);
  }
  LightOptions Opts;
  LightRecorder Light(Opts);
  {
    Machine M(P, Light);
    BurstScheduler Sched(11, 64);
    ASSERT_TRUE(M.run(Sched).Completed);
  }
  EXPECT_GT(Stride.longIntegersRecorded(), Light.longIntegersRecorded());
}

TEST(Stride, WriteListsArePerLocationOrdered) {
  mir::Program P = lockedCounter(2, 4);
  StrideRecorder Stride;
  Machine M(P, Stride);
  RandomScheduler Sched(3);
  ASSERT_TRUE(M.run(Sched).Completed);
  StrideLog Log = Stride.finish();
  // Version count equals the write-list length for every location.
  for (const auto &[L, Writes] : Log.WriteLists)
    EXPECT_FALSE(Writes.empty());
  // Reads never reference a version beyond the write list.
  for (const auto &R : Log.Reads) {
    auto It = Log.WriteLists.find(R.Loc);
    size_t Limit = It == Log.WriteLists.end() ? 0 : It->second.size();
    EXPECT_LE(R.Version, Limit);
  }
}
