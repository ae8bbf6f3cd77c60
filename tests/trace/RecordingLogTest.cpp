//===- tests/trace/RecordingLogTest.cpp - Log serialization tests ----------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "trace/RecordingLog.h"

#include "../GoldenLogs.h"
#include "support/BinaryIO.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace light;

namespace {

RecordingLog sampleLog() {
  RecordingLog Log;
  DepSpan S1;
  S1.Loc = loc::var(3);
  S1.Src = AccessId(1, 10);
  S1.Thread = 2;
  S1.First = 1;
  S1.Last = 5;
  S1.Kind = SpanKind::Read;
  Log.Spans.push_back(S1);

  DepSpan S2;
  S2.Loc = loc::field(ObjectId(1, 1), 0);
  S2.Thread = 1;
  S2.First = 2;
  S2.Last = 9;
  S2.Kind = SpanKind::Own;
  Log.Spans.push_back(S2);

  DepSpan S3;
  S3.Loc = loc::var(3);
  S3.Thread = 3;
  S3.First = 1;
  S3.Last = 1;
  S3.Kind = SpanKind::Init;
  Log.Spans.push_back(S3);

  Log.Syscalls.push_back({1, 999});
  Log.Spawns.push_back({0, 0, 1});
  Log.Spawns.push_back({0, 1, 2});
  Log.FinalCounters = {4, 12, 7};
  Log.Guards.Exact.push_back(loc::var(9));
  Log.Guards.FieldIndices.push_back(2);
  Log.Guards.GlobalIds.push_back(5);
  Log.Guards.seal();
  return Log;
}

} // namespace

TEST(RecordingLog, SaveLoadRoundTrip) {
  RecordingLog Log = sampleLog();
  std::string Path = makeTempPath("reclog");
  uint64_t Words = Log.saveCompact(Path);
  EXPECT_GT(Words, 4u);

  RecordingLog Loaded;
  LogLoadReport Report;
  ASSERT_TRUE(Loaded.load(Path, Report)) << Report.Error;
  EXPECT_EQ(Report.FormatVersion, 3u);
  EXPECT_TRUE(Report.CleanClose);
  ASSERT_EQ(Loaded.Spans.size(), Log.Spans.size());
  for (size_t I = 0; I < Log.Spans.size(); ++I)
    EXPECT_EQ(Loaded.Spans[I], Log.Spans[I]);
  ASSERT_EQ(Loaded.Syscalls.size(), 1u);
  EXPECT_EQ(Loaded.Syscalls[0].Value, 999u);
  ASSERT_EQ(Loaded.Spawns.size(), 2u);
  EXPECT_EQ(Loaded.Spawns[1].Child, 2);
  EXPECT_EQ(Loaded.FinalCounters, Log.FinalCounters);
  EXPECT_TRUE(Loaded.Guards.covers(loc::var(9)));
  EXPECT_TRUE(Loaded.Guards.covers(loc::var(5)));
  EXPECT_TRUE(Loaded.Guards.covers(loc::field(ObjectId(7, 7), 2)));
  EXPECT_FALSE(Loaded.Guards.covers(loc::var(4)));
  std::remove(Path.c_str());
}

TEST(RecordingLog, RejectsGarbage) {
  std::string Path = makeTempPath("reclog-bad");
  {
    LongWriter W(Path);
    W.put(0xdeadbeef);
    W.put(42);
    W.finish();
  }
  RecordingLog Log;
  EXPECT_FALSE(Log.load(Path));
  std::remove(Path.c_str());
}

TEST(RecordingLog, SpaceAccountingCountsEverySection) {
  // spaceLongs() is pinned to a real serialized size: the golden LIGHT001
  // file is its magic word plus spaceLongs() words. It used to count the
  // span section alone, under-reporting every other section in the space
  // evaluation.
  std::string Path = golden::path(golden::Light001);
  RecordingLog Golden;
  ASSERT_TRUE(Golden.load(Path));
  ASSERT_FALSE(Golden.Syscalls.empty());
  EXPECT_EQ(golden::bytes(Path).size(), (Golden.spaceLongs() + 1) * 8);

  RecordingLog Log = sampleLog();
  RecordingLog::SpaceBreakdown B = Log.spaceBreakdown();
  EXPECT_EQ(B.SpanWords, 1 + Log.Spans.size() * 4);
  EXPECT_EQ(B.SyscallWords, 1 + Log.Syscalls.size() * 2);
  EXPECT_EQ(B.SpawnWords, 1 + Log.Spawns.size());
  EXPECT_EQ(B.CounterWords, 1 + Log.FinalCounters.size());
  EXPECT_EQ(B.GuardWords, 3u + 3u);
  EXPECT_EQ(B.total(), Log.spaceLongs());
}

TEST(GuardSpec, CoversByKind) {
  GuardSpec G;
  G.FieldIndices = {7};
  G.GlobalIds = {3};
  G.seal();
  EXPECT_TRUE(G.covers(loc::field(ObjectId(1, 1), 7)));
  EXPECT_TRUE(G.covers(loc::field(ObjectId(9, 9), 7)));
  EXPECT_FALSE(G.covers(loc::field(ObjectId(1, 1), 8)));
  EXPECT_TRUE(G.covers(loc::var(3)));
  EXPECT_FALSE(G.covers(loc::lock(ObjectId(1, 1))));
  EXPECT_FALSE(GuardSpec().covers(loc::var(3)));
}

TEST(DepSpan, PrettyPrints) {
  DepSpan S;
  S.Loc = loc::var(1);
  S.Src = AccessId(1, 2);
  S.Thread = 2;
  S.First = 3;
  S.Last = 8;
  S.Kind = SpanKind::Read;
  EXPECT_EQ(S.str(), "var1: (t1,2) -> (t2,3) .. 8");
}

// --- salvageRecording: the CI pipeline's salvage predicate ------------------

TEST(SalvageRecording, MissingFileIsNotLoaded) {
  SalvageOutcome S = salvageRecording(makeTempPath("no-such-recording"));
  EXPECT_FALSE(S.Loaded);
  EXPECT_FALSE(S.UsablePrefix);
  EXPECT_FALSE(S.Error.empty());
}

TEST(SalvageRecording, CleanSaveIsUsable) {
  RecordingLog Log = sampleLog();
  std::string Path = makeTempPath("salvage-clean");
  ASSERT_GT(Log.saveCompact(Path), 0u);
  SalvageOutcome S = salvageRecording(Path);
  EXPECT_TRUE(S.Loaded) << S.Error;
  EXPECT_TRUE(S.UsablePrefix);
  ASSERT_EQ(S.Log.Spans.size(), sampleLog().Spans.size());
  std::remove(Path.c_str());
}
