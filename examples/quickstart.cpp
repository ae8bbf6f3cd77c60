//===- examples/quickstart.cpp - Record and replay in 80 lines -------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// The end-to-end Light pipeline on a tiny racy program:
///
///   1. build a concurrent MIR program (two workers racing on a counter),
///   2. run it under a random schedule with the Light recorder attached,
///   3. build and solve the replay constraint system,
///   4. re-execute under the replay director and check that every thread
///      observed exactly the same values (Theorem 1).
///
//===----------------------------------------------------------------------===//

#include "core/LightRecorder.h"
#include "core/ReplayDirector.h"
#include "core/ReplaySchedule.h"
#include "interp/Machine.h"
#include "mir/Builder.h"

#include <cstdio>

using namespace light;
using namespace light::mir;

int main() {
  // --- 1. A racy program: two workers each increment a shared global
  //        three times without synchronization, printing what they read.
  ProgramBuilder PB;
  uint32_t Counter = PB.addGlobal("counter");
  FuncId Worker = PB.declareFunction("worker", 0);
  {
    FunctionBuilder FB = PB.beginFunction("worker", 0);
    Reg V = FB.newReg(), One = FB.newReg();
    FB.constInt(One, 1);
    for (int I = 0; I < 3; ++I) {
      FB.getGlobal(V, Counter);
      FB.print(V);
      FB.add(V, V, One);
      FB.putGlobal(Counter, V);
    }
    FB.ret();
    PB.defineFunction(Worker, FB);
  }
  {
    FunctionBuilder FB = PB.beginFunction("main", 0);
    Reg T1 = FB.newReg(), T2 = FB.newReg(), V = FB.newReg();
    FB.threadStart(T1, Worker);
    FB.threadStart(T2, Worker);
    FB.threadJoin(T1);
    FB.threadJoin(T2);
    FB.getGlobal(V, Counter);
    FB.print(V);
    FB.ret();
    PB.setEntry(PB.endFunction(FB));
  }
  Program Prog = PB.take();

  // --- 2. Record one nondeterministic run.
  LightOptions Opts;
  LightRecorder Recorder(Opts);
  Machine RecordMachine(Prog, Recorder);
  RandomScheduler Schedule(/*Seed=*/2024);
  RunResult Original = RecordMachine.run(Schedule);
  RecordingLog Log = Recorder.finish(&RecordMachine.registry());

  std::printf("--- original run ---\n");
  for (size_t T = 0; T < Original.OutputByThread.size(); ++T)
    std::printf("thread %zu observed: %s\n", T,
                Original.OutputByThread[T].c_str());
  std::printf("recorded %zu dependence spans (%llu long-integers)\n\n",
              Log.Spans.size(),
              static_cast<unsigned long long>(Log.spaceLongs()));
  std::printf("the recording:\n%s\n", Log.str().c_str());

  // --- 3. Offline: constraints (Equation 1) -> IDL solver -> schedule.
  ReplaySchedule Plan = ReplaySchedule::build(Log);
  if (!Plan.ok()) {
    std::printf("solver failed: %s\n", Plan.error().c_str());
    return 1;
  }
  std::printf("solved a %zu-access replay schedule "
              "(%llu decisions, %llu propagations)\n\n",
              Plan.order().size(),
              static_cast<unsigned long long>(Plan.solveStats().Decisions),
              static_cast<unsigned long long>(
                  Plan.solveStats().Propagations));

  // --- 4. Replay with validation: every read must observe the recorded
  //        source write.
  ReplayDirector Director(Plan, /*RealThreads=*/false, /*Validate=*/true);
  Machine ReplayMachine(Prog, Director);
  ReplayMachine.prepareReplay(Log.Spawns);
  RunResult Replayed = ReplayMachine.runReplay(Director);

  std::printf("--- replay ---\n");
  bool Faithful = Replayed.OutputByThread == Original.OutputByThread;
  for (size_t T = 0; T < Replayed.OutputByThread.size(); ++T)
    std::printf("thread %zu observed: %s\n", T,
                Replayed.OutputByThread[T].c_str());
  std::printf("\nvalidated reads: %llu, faithful: %s\n",
              static_cast<unsigned long long>(
                  Director.stats().ValidatedReads),
              Faithful ? "YES" : "NO");
  return Faithful ? 0 : 1;
}
