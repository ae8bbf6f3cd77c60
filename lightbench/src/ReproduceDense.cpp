//===- lightbench/src/ReproduceDense.cpp - Offline reproduction workload --===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// reproduce-dense: the set-up generates 256 MIR programs from the seed (4
/// workers looping over a straight-line body of dense reads, writes and
/// read-modify-writes on 16 globals, plus lock sections over 4 consistently
/// guarded globals) and derives the O2 guards with the lock-consistency
/// analysis. One unit of work takes every program once
/// through the whole pipeline: record in the interpreter under a seeded
/// RandomScheduler, save the log to disk as LIGHT003, then load ->
/// buildScheduleProblem -> smt::solveSharded (auto shards) ->
/// ReplaySchedule -> validated cooperative replay. The solver dominates.
///
/// Work item: one recorded access carried from the closed log to a
/// validated replay. Latency: the median over the programs of the seconds
/// from the closed log on disk to the verified replay (reproduce_s).
/// Checks per program: the recording completes, the log reloads, the
/// system is satisfiable, and the replay completes without divergence
/// with per-thread outputs equal to the recording's.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/LocksetAnalysis.h"
#include "core/ConstraintGen.h"
#include "core/LightRecorder.h"
#include "core/ReplayDirector.h"
#include "core/ReplaySchedule.h"
#include "interp/Machine.h"
#include "mir/Builder.h"
#include "smt/ShardedSolver.h"
#include "support/Random.h"

#include <algorithm>
#include <filesystem>
#include <numeric>

using namespace light;
using namespace light::mir;

namespace lb {
namespace {

constexpr uint32_t Workers = 4;
constexpr uint32_t DataGlobals = 16;
constexpr uint32_t GuardedGlobals = 4;
constexpr uint32_t Locks = 2;

/// One worker: Iters rounds of a straight-line body drawn from \p R.
FuncId buildWorker(ProgramBuilder &PB, Rng &R, uint32_t W, uint32_t Iters,
                   uint32_t FirstData, uint32_t FirstGuarded,
                   uint32_t FirstLock) {
  FunctionBuilder FB = PB.beginFunction("worker" + std::to_string(W), 0);
  Reg V = FB.newReg(), Tmp = FB.newReg(), I = FB.newReg(),
      One = FB.newReg(), Zero = FB.newReg(), Cond = FB.newReg();
  std::vector<Reg> LockRegs;
  for (uint32_t L = 0; L < Locks; ++L) {
    LockRegs.push_back(FB.newReg());
    FB.getGlobal(LockRegs.back(), FirstLock + L);
  }
  FB.constInt(I, Iters);
  FB.constInt(One, 1);
  FB.constInt(Zero, 0);
  Label Top = FB.makeLabel(), Body = FB.makeLabel(), Done = FB.makeLabel();
  FB.place(Top);
  FB.cmpLt(Cond, Zero, I);
  FB.br(Cond, Body, Done);
  FB.place(Body);
  // Every body has the same operation mix, shuffled, so programs differ
  // in order and in which globals they touch but not in how much of each
  // kind of work they carry: solver effort then varies less from seed to
  // seed.
  enum Kind { Read, Write, Rmw, Locked };
  std::vector<Kind> Mix = {Read, Read,  Read, Read, Write,
                           Write, Rmw, Rmw,  Locked, Locked};
  for (size_t K = Mix.size(); K > 1; --K)
    std::swap(Mix[K - 1], Mix[R.below(K)]);
  for (uint32_t Op = 0; Op < Mix.size(); ++Op) {
    uint32_t G = FirstData + static_cast<uint32_t>(R.below(DataGlobals));
    switch (Mix[Op]) {
    case Read: // printed, so a wrong replay is observable
      FB.getGlobal(V, G);
      FB.print(V);
      break;
    case Write:
      FB.constInt(Tmp, static_cast<int64_t>(W * 100000 + Op));
      FB.putGlobal(G, Tmp);
      break;
    case Rmw:
      FB.getGlobal(V, G);
      FB.add(V, V, One);
      FB.putGlobal(G, V);
      break;
    case Locked: { // lock section on a consistently guarded global
      uint32_t H = static_cast<uint32_t>(R.below(GuardedGlobals));
      Reg Lk = LockRegs[H % Locks];
      FB.monitorEnter(Lk);
      FB.getGlobal(V, FirstGuarded + H);
      FB.add(V, V, One);
      FB.putGlobal(FirstGuarded + H, V);
      FB.monitorExit(Lk);
      FB.print(V);
      break;
    }
    }
  }
  FB.sub(I, I, One);
  FB.jmp(Top);
  FB.place(Done);
  FB.ret();
  return PB.endFunction(FB);
}

Program generate(Rng &R, uint32_t Iters) {
  ProgramBuilder PB;
  ClassId LockCls = PB.addClass("Lock", {"pad"});
  uint32_t FirstData = 0, FirstGuarded = DataGlobals,
           FirstLock = DataGlobals + GuardedGlobals;
  for (uint32_t G = 0; G < DataGlobals; ++G)
    PB.addGlobal("g" + std::to_string(G));
  for (uint32_t G = 0; G < GuardedGlobals; ++G)
    PB.addGlobal("h" + std::to_string(G));
  for (uint32_t L = 0; L < Locks; ++L)
    PB.addGlobal("lock" + std::to_string(L));
  std::vector<FuncId> Fns;
  for (uint32_t W = 0; W < Workers; ++W)
    Fns.push_back(buildWorker(PB, R, W, Iters, FirstData, FirstGuarded,
                              FirstLock));

  FunctionBuilder Main = PB.beginFunction("main", 0);
  Reg Obj = Main.newReg();
  for (uint32_t L = 0; L < Locks; ++L) {
    Main.newObject(Obj, LockCls);
    Main.putGlobal(FirstLock + L, Obj);
  }
  std::vector<Reg> Tids;
  for (FuncId F : Fns) {
    Tids.push_back(Main.newReg());
    Main.threadStart(Tids.back(), F);
  }
  for (Reg T : Tids)
    Main.threadJoin(T);
  Main.ret();
  PB.setEntry(PB.endFunction(Main));
  return PB.take();
}

/// Points the first sourced span's dependence source at another write of
/// the same location (the negative control). Returns false when the log
/// has no such pair.
bool rewriteOneSource(RecordingLog &Log) {
  for (DepSpan &A : Log.Spans) {
    if (!A.Src.valid())
      continue;
    for (const DepSpan &B : Log.Spans)
      if (&A != &B && B.Loc == A.Loc && B.Src.valid() &&
          B.Src.pack() != A.Src.pack()) {
        A.Src = B.Src;
        return true;
      }
  }
  return false;
}

struct Input {
  Program Prog;
  GuardSpec Guards;
  uint64_t ScheduleSeed = 0;
};

class ReproduceDense : public Workload {
public:
  explicit ReproduceDense(const Options &O) : O(O) {
    Programs = O.Tiny ? 4 : 256;
    Iters = O.Size ? static_cast<uint32_t>(O.Size) : O.Tiny ? 4 : 12;
  }

  const char *itemName() const override {
    return "recorded access taken from a closed log to a validated replay";
  }
  const char *latencyName() const override {
    return "median over programs of closed log -> verified replay";
  }
  Combine combine() const override { return Combine::Median; }

  void setup() override {
    Inputs.clear();
    LocksetTimes.clear();
    Rng R(O.Seed * 0x2545f4914f6cdd1dull + 3);
    for (uint32_t P = 0; P < Programs; ++P) {
      Input In;
      In.Prog = generate(R, Iters);
      In.ScheduleSeed = R.next();
      Span Sp("analysis.LocksetAnalysis");
      analysis::LocksetAnalysis LA(In.Prog);
      In.Guards = LA.consistentlyGuarded();
      LocksetTimes.push_back(Sp.stop());
      Inputs.push_back(std::move(In));
    }
  }

  Sample iterate(Checks &C, bool Traced) override {
    // The median program, not the sum, and likewise its peak RSS: solve
    // effort and memory are heavy-tailed across random programs, and one
    // outlier must not move the unit.
    Sample S;
    std::vector<double> Rss;
    for (size_t P = 0; P < Inputs.size(); ++P) {
      double Acc = 0;
      resetPeakRss();
      double Lat = reproduce(Inputs[P], P, C, Traced, Acc);
      Rss.push_back(peakRssMb());
      S.WorkSeconds.push_back(Lat);
      S.WorkDone.push_back(Acc);
      S.LatencySeconds.push_back(Lat);
    }
    S.PeakRssMb = median(Rss);
    return S;
  }

  void layerMetrics(std::vector<Metric> &Out) override {
    auto Put = [&](const char *Name, const std::vector<double> &V) {
      Out.push_back({Name, median(V), "", V.size()});
    };
    Put("analysis.lockset_s", LocksetTimes);
    Put("interp.minstr_per_s", InterpRates);
    Put("core.recorder.spans_per_kaccess", SpansPerK);
    Put("trace.log_bytes_per_access", BytesPerAccess);
    Put("trace.decode_s", DecodeTimes);
    Put("core.constraint.build_s", BuildTimes);
    Put("core.constraint.vars", Vars);
    Put("core.constraint.clauses", Clauses);
    Put("core.constraint.components", Components);
    Put("smt.solve_s", SolveTimes);
    Put("smt.decisions", Decisions);
    Put("smt.conflicts", Conflicts);
    Put("smt.propagations", Propagations);
    Put("smt.scan_steps", ScanSteps);
    Put("smt.cycle_checks", CycleChecks);
    Put("smt.shards", Shards);
    Put("smt.conflicts_per_decision", ConflictRatio);
    Put("core.replay.run_s", ReplayTimes);
    Put("core.replay.turns", Turns);
    Put("core.replay.stalls", Stalls);
    Put("core.replay.validated_reads", ValidatedReads);
  }

private:
  /// Records, saves and reproduces program \p P; returns the seconds from
  /// the closed log to the verified replay and the accesses it carried.
  double reproduce(const Input &In, size_t P, Checks &C, bool Traced,
                   double &AccessesOut) {
    std::string Path = O.WorkDir + "/dense-" + std::to_string(P) + ".light3";
    LightOptions Opts;
    Opts.WriteToDisk = false;
    LightRecorder Rec(Opts);
    Rec.setGuards(In.Guards);
    RunResult Recorded;
    RecordingLog Log;
    {
      Span Sp("interp.Machine.run+recorder");
      Machine M(In.Prog, Rec);
      M.seedEnvironment(In.ScheduleSeed ^ 0x5a5a);
      RandomScheduler Sched(In.ScheduleSeed);
      Recorded = M.run(Sched);
      Log = Rec.finish(&M.registry());
      if (Traced)
        InterpRates.push_back(
            static_cast<double>(Recorded.InstructionsExecuted) / 1e6 /
            Sp.stop());
    }
    std::string Tag = "reproduce-dense program " + std::to_string(P) + ": ";
    C.expect(Recorded.Completed, Tag + "recording did not complete: " +
                                     Recorded.Bug.str());
    if (O.NegativeControl)
      C.expect(rewriteOneSource(Log), Tag + "no source to rewrite");
    uint64_t Longs = Log.saveCompact(Path);
    C.expect(Longs > 0, Tag + "saveCompact failed");
    double Accesses = 0;
    for (Counter Ctr : Log.FinalCounters)
      Accesses += static_cast<double>(Ctr);
    AccessesOut = Accesses;

    // The closed log is on disk: reproduce_s starts here.
    Clock::time_point T0 = Clock::now();
    RecordingLog Loaded;
    double DecodeS;
    {
      Span Sp("trace.RecordingLog.load");
      C.expect(Loaded.load(Path), Tag + "log did not reload");
      DecodeS = Sp.stop();
    }
    ScheduleProblem Problem;
    double BuildS;
    {
      Span Sp("core.buildScheduleProblem");
      Problem = buildScheduleProblem(Loaded);
      BuildS = Sp.stop();
    }
    smt::SolveResult Solved;
    double SolveS;
    {
      Span Sp("smt.solveSharded");
      Solved = smt::solveSharded(Problem.System, smt::SolverEngine::Idl, {},
                                 /*ShardCount=*/0);
      SolveS = Sp.stop();
    }
    bool Sat = C.expect(Solved.sat(), Tag + "replay system not solved");
    RunResult Replayed;
    ReplayStats RStats;
    double ReplayS = 0;
    if (Sat) {
      std::vector<uint32_t> Perm(Problem.VarAccess.size());
      std::iota(Perm.begin(), Perm.end(), 0u);
      std::sort(Perm.begin(), Perm.end(), [&](uint32_t X, uint32_t Y) {
        int64_t VX = Solved.Values[X], VY = Solved.Values[Y];
        return VX != VY ? VX < VY
                        : Problem.VarAccess[X].pack() <
                              Problem.VarAccess[Y].pack();
      });
      std::vector<AccessId> Order;
      Order.reserve(Perm.size());
      for (uint32_t I : Perm)
        Order.push_back(Problem.VarAccess[I]);
      Span Sp("core.replay");
      ReplaySchedule RS = ReplaySchedule::fromSolvedOrder(
          Loaded, std::move(Order), Solved);
      ReplayDirector Director(RS, /*RealThreads=*/false, /*Validate=*/true);
      Machine RM(In.Prog, Director);
      RM.prepareReplay(Loaded.Spawns);
      Replayed = RM.runReplay(Director);
      ReplayS = Sp.stop();
      RStats = Director.stats();
      C.expect(!Director.failed() && Director.complete(),
               Tag + "replay diverged: " + Director.divergence());
      C.expect(Replayed.Completed &&
                   Replayed.OutputByThread == Recorded.OutputByThread,
               Tag + "replayed outputs differ from the recording");
    }
    double Latency = secondsSince(T0);
    std::error_code Ec;
    if (Traced) {
      SpansPerK.push_back(static_cast<double>(Log.Spans.size()) /
                          (Accesses / 1e3));
      BytesPerAccess.push_back(
          static_cast<double>(std::filesystem::file_size(Path, Ec)) /
          Accesses);
      DecodeTimes.push_back(DecodeS);
      BuildTimes.push_back(BuildS);
      Vars.push_back(Problem.System.numVars());
      Clauses.push_back(static_cast<double>(Problem.System.clauses().size()));
      Components.push_back(Problem.Components.NumComponents);
      SolveTimes.push_back(SolveS);
      Decisions.push_back(static_cast<double>(Solved.Decisions));
      Conflicts.push_back(static_cast<double>(Solved.Conflicts));
      Propagations.push_back(static_cast<double>(Solved.Propagations));
      ScanSteps.push_back(static_cast<double>(Solved.ScanSteps));
      CycleChecks.push_back(static_cast<double>(Solved.CycleChecks));
      Shards.push_back(Solved.Shards);
      ConflictRatio.push_back(
          Solved.Decisions ? static_cast<double>(Solved.Conflicts) /
                                 static_cast<double>(Solved.Decisions)
                           : 0);
      ReplayTimes.push_back(ReplayS);
      Turns.push_back(static_cast<double>(RStats.Turns));
      Stalls.push_back(static_cast<double>(RStats.Stalls));
      ValidatedReads.push_back(static_cast<double>(RStats.ValidatedReads));
    }
    std::filesystem::remove(Path, Ec);
    return Latency;
  }

  Options O;
  uint32_t Programs = 256;
  uint32_t Iters = 50;
  std::vector<Input> Inputs;

  std::vector<double> LocksetTimes, InterpRates, SpansPerK, BytesPerAccess,
      DecodeTimes, BuildTimes, Vars, Clauses, Components, SolveTimes,
      Decisions, Conflicts, Propagations, ScanSteps, CycleChecks, Shards,
      ConflictRatio, ReplayTimes, Turns, Stalls, ValidatedReads;
};

} // namespace

std::unique_ptr<Workload> makeReproduceDense(const Options &O) {
  return std::make_unique<ReproduceDense>(O);
}

} // namespace lb
