//===- tests/TestPrograms.h - Shared MIR test programs ----------*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small MIR programs reused across the test suite, plus record/replay
/// driver helpers.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_TESTS_TESTPROGRAMS_H
#define LIGHT_TESTS_TESTPROGRAMS_H

#include "core/LightRecorder.h"
#include "core/ReplayDirector.h"
#include "core/ReplaySchedule.h"
#include "interp/Machine.h"
#include "mir/Builder.h"
#include "smt/ShardedSolver.h"

#include <gtest/gtest.h>

namespace light {
namespace testprogs {

/// Two workers race on a Box field: the writer nulls it, the reader asserts
/// it non-null (the necessity example of Theorem 1's proof). Global 0 holds
/// the Box.
inline mir::Program racyNull() {
  using namespace mir;
  ProgramBuilder PB;
  ClassId Box = PB.addClass("Box", {"val"});
  uint32_t GBox = PB.addGlobal("box");

  FuncId WriterId = PB.declareFunction("writer", 0);
  FuncId ReaderId = PB.declareFunction("reader", 0);

  {
    FunctionBuilder FB = PB.beginFunction("writer", 0);
    Reg Obj = FB.newReg(), Null = FB.newReg();
    FB.getGlobal(Obj, GBox);
    FB.constNull(Null);
    FB.putField(Obj, 0, Null);
    FB.ret();
    PB.defineFunction(WriterId, FB);
  }
  {
    FunctionBuilder FB = PB.beginFunction("reader", 0);
    Reg Obj = FB.newReg(), V = FB.newReg();
    FB.getGlobal(Obj, GBox);
    FB.getField(V, Obj, 0);
    FB.assertNonNull(V, /*BugId=*/1);
    FB.ret();
    PB.defineFunction(ReaderId, FB);
  }
  {
    FunctionBuilder FB = PB.beginFunction("main", 0);
    Reg Obj = FB.newReg(), One = FB.newReg();
    Reg T1 = FB.newReg(), T2 = FB.newReg();
    FB.newObject(Obj, Box);
    FB.constInt(One, 1);
    FB.putField(Obj, 0, One);
    FB.putGlobal(GBox, Obj);
    FB.threadStart(T1, WriterId);
    FB.threadStart(T2, ReaderId);
    FB.threadJoin(T1);
    FB.threadJoin(T2);
    FB.ret();
    FuncId Main = PB.endFunction(FB);
    PB.setEntry(Main);
  }
  return PB.take();
}

/// N workers each do Reps unlocked read-increment-write rounds on a shared
/// global counter and print every value they observed. Schedule-sensitive
/// outputs make this the canonical value-determinism test.
inline mir::Program counterRace(int Workers, int Reps) {
  using namespace mir;
  ProgramBuilder PB;
  uint32_t GCtr = PB.addGlobal("counter");

  FuncId WorkerId = PB.declareFunction("worker", 0);
  {
    FunctionBuilder FB = PB.beginFunction("worker", 0);
    Reg I = FB.newReg(), RepsReg = FB.newReg(), One = FB.newReg();
    Reg V = FB.newReg(), Cond = FB.newReg();
    FB.constInt(I, 0);
    FB.constInt(RepsReg, Reps);
    FB.constInt(One, 1);
    Label Loop = FB.makeLabel(), Body = FB.makeLabel(), Done = FB.makeLabel();
    FB.place(Loop);
    FB.cmpLt(Cond, I, RepsReg);
    FB.br(Cond, Body, Done);
    FB.place(Body);
    FB.getGlobal(V, GCtr);
    FB.print(V);
    FB.add(V, V, One);
    FB.putGlobal(GCtr, V);
    FB.add(I, I, One);
    FB.jmp(Loop);
    FB.place(Done);
    FB.ret();
    PB.defineFunction(WorkerId, FB);
  }
  {
    FunctionBuilder FB = PB.beginFunction("main", 0);
    std::vector<Reg> Tids;
    for (int W = 0; W < Workers; ++W) {
      Reg T = FB.newReg();
      FB.threadStart(T, WorkerId);
      Tids.push_back(T);
    }
    for (Reg T : Tids)
      FB.threadJoin(T);
    Reg V = FB.newReg();
    FB.getGlobal(V, GCtr);
    FB.print(V);
    FB.ret();
    FuncId Main = PB.endFunction(FB);
    PB.setEntry(Main);
  }
  return PB.take();
}

/// Monitor-protected counter: the same increments, all inside synchronized
/// regions on a shared lock object (global 1). Exercises ghost lock
/// accesses and the O2 guard analysis.
inline mir::Program lockedCounter(int Workers, int Reps) {
  using namespace mir;
  ProgramBuilder PB;
  ClassId LockCls = PB.addClass("Lock", {"pad"});
  uint32_t GCtr = PB.addGlobal("counter");
  uint32_t GLock = PB.addGlobal("lock");

  FuncId WorkerId = PB.declareFunction("worker", 0);
  {
    FunctionBuilder FB = PB.beginFunction("worker", 0);
    Reg I = FB.newReg(), RepsReg = FB.newReg(), One = FB.newReg();
    Reg V = FB.newReg(), Cond = FB.newReg(), LockObj = FB.newReg();
    FB.constInt(I, 0);
    FB.constInt(RepsReg, Reps);
    FB.constInt(One, 1);
    FB.getGlobal(LockObj, GLock);
    Label Loop = FB.makeLabel(), Body = FB.makeLabel(), Done = FB.makeLabel();
    FB.place(Loop);
    FB.cmpLt(Cond, I, RepsReg);
    FB.br(Cond, Body, Done);
    FB.place(Body);
    FB.monitorEnter(LockObj);
    FB.getGlobal(V, GCtr);
    FB.print(V);
    FB.add(V, V, One);
    FB.putGlobal(GCtr, V);
    FB.monitorExit(LockObj);
    FB.add(I, I, One);
    FB.jmp(Loop);
    FB.place(Done);
    FB.ret();
    PB.defineFunction(WorkerId, FB);
  }
  {
    FunctionBuilder FB = PB.beginFunction("main", 0);
    Reg LockObj = FB.newReg();
    FB.newObject(LockObj, LockCls);
    FB.putGlobal(GLock, LockObj);
    std::vector<Reg> Tids;
    for (int W = 0; W < Workers; ++W) {
      Reg T = FB.newReg();
      FB.threadStart(T, WorkerId);
      Tids.push_back(T);
    }
    for (Reg T : Tids)
      FB.threadJoin(T);
    Reg V = FB.newReg();
    FB.getGlobal(V, GCtr);
    FB.print(V);
    FB.ret();
    FuncId Main = PB.endFunction(FB);
    PB.setEntry(Main);
  }
  return PB.take();
}

/// Producer/consumer over a one-slot mailbox with wait/notify: consumer
/// waits until the producer deposits each of Items values; both print what
/// they see. Exercises the wait_before / wait_after modeling.
inline mir::Program waitNotify(int Items) {
  using namespace mir;
  ProgramBuilder PB;
  ClassId BoxCls = PB.addClass("Mailbox", {"full", "value"});
  uint32_t GBox = PB.addGlobal("box");

  FuncId ProducerId = PB.declareFunction("producer", 0);
  FuncId ConsumerId = PB.declareFunction("consumer", 0);

  {
    FunctionBuilder FB = PB.beginFunction("producer", 0);
    Reg Box = FB.newReg(), I = FB.newReg(), N = FB.newReg(), One = FB.newReg();
    Reg Full = FB.newReg(), Cond = FB.newReg();
    FB.getGlobal(Box, GBox);
    FB.constInt(I, 0);
    FB.constInt(N, Items);
    FB.constInt(One, 1);
    Label Loop = FB.makeLabel(), Body = FB.makeLabel(), Done = FB.makeLabel();
    Label WaitLoop = FB.makeLabel(), DoWait = FB.makeLabel();
    Label Deposit = FB.makeLabel();
    FB.place(Loop);
    FB.cmpLt(Cond, I, N);
    FB.br(Cond, Body, Done);
    FB.place(Body);
    FB.monitorEnter(Box);
    FB.place(WaitLoop);
    FB.getField(Full, Box, 0);
    FB.br(Full, DoWait, Deposit); // full -> wait for the consumer
    FB.place(DoWait);
    FB.wait(Box);
    FB.jmp(WaitLoop);
    FB.place(Deposit);
    FB.putField(Box, 1, I);
    FB.putField(Box, 0, One);
    FB.notifyAll(Box);
    FB.monitorExit(Box);
    FB.add(I, I, One);
    FB.jmp(Loop);
    FB.place(Done);
    FB.ret();
    PB.defineFunction(ProducerId, FB);
  }
  {
    FunctionBuilder FB = PB.beginFunction("consumer", 0);
    Reg Box = FB.newReg(), I = FB.newReg(), N = FB.newReg(), One = FB.newReg();
    Reg Zero = FB.newReg(), Full = FB.newReg(), V = FB.newReg();
    Reg Cond = FB.newReg();
    FB.getGlobal(Box, GBox);
    FB.constInt(I, 0);
    FB.constInt(N, Items);
    FB.constInt(One, 1);
    FB.constInt(Zero, 0);
    Label Loop = FB.makeLabel(), Body = FB.makeLabel(), Done = FB.makeLabel();
    Label WaitLoop = FB.makeLabel(), DoWait = FB.makeLabel();
    Label Take = FB.makeLabel();
    FB.place(Loop);
    FB.cmpLt(Cond, I, N);
    FB.br(Cond, Body, Done);
    FB.place(Body);
    FB.monitorEnter(Box);
    FB.place(WaitLoop);
    FB.getField(Full, Box, 0);
    FB.br(Full, Take, DoWait); // empty -> wait for the producer
    FB.place(DoWait);
    FB.wait(Box);
    FB.jmp(WaitLoop);
    FB.place(Take);
    FB.getField(V, Box, 1);
    FB.print(V);
    FB.putField(Box, 0, Zero);
    FB.notifyAll(Box);
    FB.monitorExit(Box);
    FB.add(I, I, One);
    FB.jmp(Loop);
    FB.place(Done);
    FB.ret();
    PB.defineFunction(ConsumerId, FB);
  }
  {
    FunctionBuilder FB = PB.beginFunction("main", 0);
    Reg Box = FB.newReg(), T1 = FB.newReg(), T2 = FB.newReg();
    FB.newObject(Box, BoxCls);
    FB.putGlobal(GBox, Box);
    FB.threadStart(T1, ProducerId);
    FB.threadStart(T2, ConsumerId);
    FB.threadJoin(T1);
    FB.threadJoin(T2);
    FB.ret();
    FuncId Main = PB.endFunction(FB);
    PB.setEntry(Main);
  }
  return PB.take();
}

/// Check-then-act (TOCTOU) bug, the Cache4j shape: the reader validates the
/// field then uses it, and fails only when the writer's null store lands
/// *between* the check and the use — an intra-method interleaving that
/// method-level serialization makes impossible (the bugs Chimera hides).
inline mir::Program checkThenAct() {
  using namespace mir;
  ProgramBuilder PB;
  ClassId Box = PB.addClass("Box", {"val"});
  uint32_t GBox = PB.addGlobal("box");

  FuncId WriterId = PB.declareFunction("invalidator", 0);
  FuncId ReaderId = PB.declareFunction("consumer", 0);
  {
    FunctionBuilder FB = PB.beginFunction("invalidator", 0);
    Reg Obj = FB.newReg(), Null = FB.newReg(), One = FB.newReg();
    FB.getGlobal(Obj, GBox);
    FB.constNull(Null);
    FB.constInt(One, 1);
    FB.putField(Obj, 0, Null);
    FB.putField(Obj, 0, One); // restore, shrinking the race window
    FB.ret();
    PB.defineFunction(WriterId, FB);
  }
  {
    FunctionBuilder FB = PB.beginFunction("consumer", 0);
    Reg Obj = FB.newReg(), V = FB.newReg(), W = FB.newReg();
    Reg IsNull = FB.newReg(), NullReg = FB.newReg();
    FB.getGlobal(Obj, GBox);
    Label Use = FB.makeLabel(), Done = FB.makeLabel();
    FB.getField(V, Obj, 0); // check
    FB.constNull(NullReg);
    FB.cmpEq(IsNull, V, NullReg);
    FB.br(IsNull, Done, Use);
    FB.place(Use);
    FB.getField(W, Obj, 0); // act: only buggy if nulled in between
    FB.assertNonNull(W, /*BugId=*/2);
    FB.place(Done);
    FB.ret();
    PB.defineFunction(ReaderId, FB);
  }
  {
    FunctionBuilder FB = PB.beginFunction("main", 0);
    Reg Obj = FB.newReg(), One = FB.newReg();
    Reg T1 = FB.newReg(), T2 = FB.newReg();
    FB.newObject(Obj, Box);
    FB.constInt(One, 1);
    FB.putField(Obj, 0, One);
    FB.putGlobal(GBox, Obj);
    FB.threadStart(T1, WriterId);
    FB.threadStart(T2, ReaderId);
    FB.threadJoin(T1);
    FB.threadJoin(T2);
    FB.ret();
    FuncId Main = PB.endFunction(FB);
    PB.setEntry(Main);
  }
  return PB.take();
}

// --- Record / replay drivers ------------------------------------------------

struct RecordOutcome {
  RunResult Result;
  RecordingLog Log;
};

/// Records one run of \p Prog under \p Sched.
inline RecordOutcome recordRunWith(const mir::Program &Prog, uint64_t Seed,
                                   Scheduler &Sched,
                                   LightOptions Opts = LightOptions()) {
  LightRecorder Rec(Opts);
  Machine M(Prog, Rec);
  M.seedEnvironment(Seed ^ 0x5a5a);
  RecordOutcome Out;
  Out.Result = M.run(Sched);
  Out.Log = Rec.finish(&M.registry());
  return Out;
}

/// Records one run of \p Prog under a random schedule from \p Seed.
inline RecordOutcome recordRun(const mir::Program &Prog, uint64_t Seed,
                               LightOptions Opts = LightOptions()) {
  RandomScheduler Sched(Seed);
  return recordRunWith(Prog, Seed, Sched, Opts);
}

/// Records under a bursty schedule (long uninterleaved runs, the Figure 2
/// pattern O1 exploits).
inline RecordOutcome recordRunBursty(const mir::Program &Prog, uint64_t Seed,
                                     LightOptions Opts = LightOptions()) {
  BurstScheduler Sched(Seed, /*MaxBurstLen=*/64);
  return recordRunWith(Prog, Seed, Sched, Opts);
}

/// Replays \p Log against \p Prog under the solved schedule \p RS with
/// validation on; returns the result.
inline RunResult replayRunWith(const mir::Program &Prog,
                               const RecordingLog &Log,
                               const ReplaySchedule &RS,
                               std::string *Error = nullptr) {
  if (!RS.ok()) {
    if (Error)
      *Error = RS.error();
    RunResult R;
    R.Bug.What = BugReport::Kind::ReplayDivergence;
    R.Bug.Detail = RS.error();
    return R;
  }
  ReplayDirector Director(RS, /*RealThreads=*/false, /*Validate=*/true);
  Machine M(Prog, Director);
  M.prepareReplay(Log.Spawns);
  RunResult R = M.runReplay(Director);
  if (Error && Director.failed())
    *Error = Director.divergence();
  return R;
}

/// Solves \p Log with ReplaySchedule::build and replays it against \p Prog
/// with validation on; returns the result.
inline RunResult replayRun(const mir::Program &Prog, const RecordingLog &Log,
                           smt::SolverEngine Engine = smt::SolverEngine::Idl,
                           std::string *Error = nullptr) {
  return replayRunWith(Prog, Log, ReplaySchedule::build(Log, Engine), Error);
}

/// Asserts that replaying \p Recorded's log under \p RS reproduces the
/// recording exactly: same completion, same bug correlation (Theorem 1),
/// same per-thread outputs (same value at every use).
inline void expectFaithfulReplayWith(const mir::Program &Prog,
                                     const RecordOutcome &Recorded,
                                     const ReplaySchedule &RS) {
  std::string Error;
  RunResult Replayed = replayRunWith(Prog, Recorded.Log, RS, &Error);
  ASSERT_NE(Replayed.Bug.What, BugReport::Kind::ReplayDivergence)
      << "replay diverged: " << Replayed.Bug.Detail << " " << Error;
  EXPECT_EQ(Recorded.Result.Completed, Replayed.Completed);
  EXPECT_TRUE(Recorded.Result.Bug.sameAs(Replayed.Bug))
      << "recorded: " << Recorded.Result.Bug.str()
      << "\nreplayed: " << Replayed.Bug.str();
  ASSERT_EQ(Recorded.Result.OutputByThread.size(),
            Replayed.OutputByThread.size());
  for (size_t I = 0; I < Replayed.OutputByThread.size(); ++I)
    EXPECT_EQ(Recorded.Result.OutputByThread[I], Replayed.OutputByThread[I])
        << "thread " << I << " observed different values in replay";
}

/// The schedule the reproduce-dense benchmark measures:
/// buildScheduleProblem -> smt::solveSharded over up to \p Shards shards
/// (0 = auto) -> ScheduleProblem::orderOf -> ReplaySchedule::fromSolvedOrder.
/// A failed solve yields a schedule whose ok() is false.
inline ReplaySchedule shardedSchedule(const RecordingLog &Log,
                                      unsigned Shards) {
  ScheduleProblem P = buildScheduleProblem(Log);
  smt::SolveResult R =
      smt::solveSharded(P.System, smt::SolverEngine::Idl, {}, Shards);
  if (!R.sat())
    return ReplaySchedule();
  std::vector<AccessId> Order = P.orderOf(R);
  return ReplaySchedule::fromSolvedOrder(Log, std::move(Order), std::move(R));
}

/// expectFaithfulReplayWith over the schedule ReplaySchedule::build solves.
inline void expectFaithfulReplay(const mir::Program &Prog,
                                 const RecordOutcome &Recorded,
                                 smt::SolverEngine Engine =
                                     smt::SolverEngine::Idl) {
  expectFaithfulReplayWith(Prog, Recorded,
                           ReplaySchedule::build(Recorded.Log, Engine));
}

} // namespace testprogs
} // namespace light

#endif // LIGHT_TESTS_TESTPROGRAMS_H
