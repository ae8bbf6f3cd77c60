//===- tests/dist/NodeSetTest.cpp - Causal-cut salvage unit tests ---------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the offline half of multi-node replay (dist/NodeSet.h):
/// the id-space renaming of mergeNodeLog, the per-node path convention,
/// and the clean end-to-end pipeline — fork-record a deterministic
/// two-node ping-pong, salvage, merge, solve the global schedule with its
/// cross-node edges, and replay each node validated.
///
//===----------------------------------------------------------------------===//

#include "DistTestUtil.h"

#include "mir/Builder.h"

#include <gtest/gtest.h>

using namespace light;
using namespace light::mir;
using namespace light::disttest;

namespace {

/// Deterministic two-node ping-pong to the node convention: node 0 sends
/// 5 on `ping` and asserts nothing; node 1 echoes v+10 on `pong`; node 0
/// receives 15. Race-free, always terminates, always clean.
Program nodePingPong() {
  ProgramBuilder PB;
  uint32_t Ping = PB.addChannel("ping");
  uint32_t Pong = PB.addChannel("pong");
  FuncId Role0 = PB.declareFunction("role0", 0);
  FuncId Role1 = PB.declareFunction("role1", 0);
  FuncId NodeFn = PB.declareFunction("node", 1);
  {
    FunctionBuilder FB = PB.beginFunction("role0", 0);
    Reg V = FB.newReg();
    FB.constInt(V, 5);
    FB.send(V, Ping);
    FB.recv(V, Pong);
    FB.print(V);
    FB.ret();
    PB.defineFunction(Role0, FB);
  }
  {
    FunctionBuilder FB = PB.beginFunction("role1", 0);
    Reg V = FB.newReg(), Ten = FB.newReg();
    FB.recv(V, Ping);
    FB.constInt(Ten, 10);
    FB.add(V, V, Ten);
    FB.send(V, Pong);
    FB.ret();
    PB.defineFunction(Role1, FB);
  }
  {
    FunctionBuilder FB = PB.beginFunction("node", 1);
    Reg Idx = FB.param(0);
    Reg Zero = FB.newReg(), IsZero = FB.newReg();
    Label Hit = FB.makeLabel(), Next = FB.makeLabel();
    FB.constInt(Zero, 0);
    FB.cmpEq(IsZero, Idx, Zero);
    FB.br(IsZero, Hit, Next);
    FB.place(Hit);
    FB.call(NoReg, Role0);
    FB.ret();
    FB.place(Next);
    FB.call(NoReg, Role1);
    FB.ret();
    PB.defineFunction(NodeFn, FB);
  }
  {
    FunctionBuilder FB = PB.beginFunction("main", 0);
    Reg Idx = FB.newReg(), T0 = FB.newReg(), T1 = FB.newReg();
    FB.constInt(Idx, 0);
    FB.threadStart(T0, NodeFn, Idx);
    FB.constInt(Idx, 1);
    FB.threadStart(T1, NodeFn, Idx);
    FB.threadJoin(T0);
    FB.threadJoin(T1);
    FB.ret();
    PB.setEntry(PB.endFunction(FB));
  }
  return PB.take();
}

} // namespace

TEST(NodeSet, NodeLogPathConvention) {
  EXPECT_EQ(dist::nodeLogPath("/tmp/run.lightlog", 0),
            "/tmp/run.lightlog.node0");
  EXPECT_EQ(dist::nodeLogPath("/tmp/run.lightlog", 7),
            "/tmp/run.lightlog.node7");
}

TEST(NodeSet, MergeRenamesThreadsIntoDisjointSlices) {
  RecordingLog Local;
  DepSpan S;
  S.Loc = loc::var(3);
  S.Thread = 2;
  S.Src = AccessId(1, 4);
  S.First = 1;
  S.Last = 6;
  S.Kind = SpanKind::Read;
  Local.Spans.push_back(S);
  Local.Syscalls.push_back({1, 42});
  Local.Spawns.push_back({0, 0, 1});
  Local.FinalCounters = {3, 9, 6};

  RecordingLog Merged;
  dist::mergeNodeLog(Merged, Local, /*Node=*/2);
  constexpr uint32_t Stride = dist::NodeThreadStride;

  ASSERT_EQ(Merged.Spans.size(), 1u);
  EXPECT_EQ(Merged.Spans[0].Thread, 2 * Stride + 2);
  EXPECT_EQ(Merged.Spans[0].Src.Thread, 2 * Stride + 1);
  EXPECT_EQ(Merged.Spans[0].Src.Count, Counter(4));
  ASSERT_EQ(Merged.Syscalls.size(), 1u);
  EXPECT_EQ(Merged.Syscalls[0].Thread, 2 * Stride + 1);
  ASSERT_EQ(Merged.Spawns.size(), 1u);
  EXPECT_EQ(Merged.Spawns[0].Parent, 2 * Stride + 0);
  EXPECT_EQ(Merged.Spawns[0].Child, 2 * Stride + 1);
  ASSERT_EQ(Merged.FinalCounters.size(), 2 * Stride + 3);
  EXPECT_EQ(Merged.FinalCounters[2 * Stride + 1], Counter(9));
}

TEST(NodeSet, MergeNodeQualifiesPerNodeLocations) {
  // The same node-local Var on two nodes must land on two distinct merged
  // cells (separate address spaces), while a Chan location — already
  // node-stamped at record time — passes through untouched.
  RecordingLog A, Out;
  DepSpan S;
  S.Loc = loc::var(3);
  S.Thread = 1;
  S.First = 1;
  S.Last = 1;
  S.Kind = SpanKind::Own;
  A.Spans.push_back(S);
  S.Loc = loc::chan(2, /*Node=*/1);
  A.Spans.push_back(S);

  dist::mergeNodeLog(Out, A, 0);
  dist::mergeNodeLog(Out, A, 1);
  ASSERT_EQ(Out.Spans.size(), 4u);
  EXPECT_NE(Out.Spans[0].Loc, Out.Spans[2].Loc) << "var(3) not qualified";
  EXPECT_EQ(Out.Spans[1].Loc, Out.Spans[3].Loc) << "chan already stamped";
  EXPECT_EQ(Out.Spans[1].Loc, loc::chan(2, 1));
}

TEST(NodeSet, LoadWithNoLogsIsStructuredEmpty) {
  dist::NodeSetLoader Loader;
  dist::MergeResult MR = Loader.load(makeTempPath("nodeset-none"), 2);
  EXPECT_FALSE(MR.Loaded);
  EXPECT_FALSE(MR.Error.empty());
}

TEST(NodeSet, LoadRejectsBadNodeCounts) {
  dist::NodeSetLoader Loader;
  EXPECT_FALSE(Loader.load(makeTempPath("nodeset-zero"), 0).Loaded);
  EXPECT_FALSE(
      Loader.load(makeTempPath("nodeset-over"), dist::MaxNodes + 1).Loaded);
}

TEST(NodeSet, CleanPingPongSolvesAFullScheduleAndReplays) {
  Program Prog = nodePingPong();
  ASSERT_EQ(Prog.verify(), "") << Prog.str();

  dist::DistOptions Opts;
  Opts.Nodes = 2;
  Opts.Seed = 1;
  Opts.LogBase = makeTempPath("nodeset-clean");
  Opts.EpochSpans = 2;
  DistPipelineOutcome Out = runDistPipeline(Prog, Opts);

  ASSERT_TRUE(Out.Record.Started) << Out.Record.Error;
  for (uint32_t N = 0; N < 2; ++N)
    EXPECT_TRUE(Out.Record.Nodes[N].completedCleanly())
        << "node " << N << ": " << Out.Record.Nodes[N].str();
  ASSERT_TRUE(Out.Merge.Loaded) << Out.Merge.Error;
  EXPECT_TRUE(Out.Merge.FullSchedule);
  EXPECT_TRUE(Out.Merge.Cut.empty());
  ASSERT_TRUE(Out.Solved) << Out.Merge.Error;
  // One send->recv edge per hop: ping and pong.
  EXPECT_GE(Out.Merge.CrossEdges, 2u);
  ASSERT_EQ(Out.Replays.size(), 2u);
  for (uint32_t N = 0; N < 2; ++N) {
    EXPECT_TRUE(Out.Replays[N].HadUsablePrefix);
    EXPECT_TRUE(Out.Replays[N].PlanOk) << Out.Replays[N].Note;
    EXPECT_TRUE(Out.Replays[N].Validated);
    EXPECT_FALSE(Out.Replays[N].Diverged) << Out.Replays[N].Note;
    EXPECT_TRUE(Out.Replays[N].Result.Completed)
        << Out.Replays[N].Result.Bug.str();
  }
  // Node 0's replay re-observes the recorded reply value.
  ASSERT_FALSE(Out.Replays[0].Result.OutputByThread.empty());
  EXPECT_EQ(Out.Replays[0].Result.OutputByThread[0], "15\n");
  EXPECT_TRUE(Out.structured());
  removeNodeLogs(Opts.LogBase, 2);
}

TEST(NodeSet, CompressedEpochsSalvageTheSamePipeline) {
  // Every node writes its epoch log as compressed LIGHT003, and the merged
  // pipeline salvages, solves and replays from those logs.
  Program Prog = nodePingPong();
  dist::DistOptions Opts;
  Opts.Nodes = 2;
  Opts.Seed = 3;
  Opts.LogBase = makeTempPath("nodeset-compress");
  Opts.EpochSpans = 2;
  DistPipelineOutcome Out = runDistPipeline(Prog, Opts);
  ASSERT_TRUE(Out.Record.Started) << Out.Record.Error;
  ASSERT_TRUE(Out.Merge.Loaded) << Out.Merge.Error;
  EXPECT_TRUE(Out.Merge.FullSchedule);
  ASSERT_EQ(Out.Merge.Nodes.size(), 2u);
  for (const dist::NodeSalvage &NS : Out.Merge.Nodes)
    EXPECT_EQ(NS.Epoch.Report.FormatVersion, 3u);
  ASSERT_TRUE(Out.Solved) << Out.Merge.Error;
  EXPECT_TRUE(Out.structured());
  removeNodeLogs(Opts.LogBase, 2);
}
