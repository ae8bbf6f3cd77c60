//===- explore/CrossEngineOracle.cpp - Differential replay oracle ----------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
//
// Fault sites (see support/FaultInjection.h):
//   oracle.corrupt_leap_order   swap the first adjacent same-thread pair in
//                               Leap's linearized total order before replay —
//                               a seeded, deterministic divergence used to
//                               exercise the oracle + shrinker pipeline.
//
//===----------------------------------------------------------------------===//

#include "explore/CrossEngineOracle.h"

#include "analysis/LocksetAnalysis.h"
#include "analysis/RaceDetector.h"
#include "analysis/SharedAccessAnalysis.h"
#include "baselines/ChimeraEngine.h"
#include "baselines/ClapEngine.h"
#include "baselines/LeapRecorder.h"
#include "baselines/LeapReplayer.h"
#include "baselines/StrideRecorder.h"
#include "core/LightRecorder.h"
#include "core/ReplayDirector.h"
#include "core/ReplaySchedule.h"
#include "explore/ExplorationDriver.h"
#include "explore/ExploreSchedulers.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/FaultInjection.h"

using namespace light;
using namespace light::explore;

std::string OracleVerdict::str() const {
  std::string Out;
  if (Agreed) {
    Out = "agreed";
  } else {
    Out = "DISAGREED (" + std::to_string(Disagreements.size()) + ")";
    for (const Disagreement &D : Disagreements)
      Out += "\n  " + D.str();
  }
  Out += BugManifested ? "; bug: " + Bug.str() : "; no bug";
  if (!ClapSupported)
    Out += "; clap unsupported";
  return Out;
}

namespace {

/// Compares per-thread print sequences; empty string = equal.
std::string diffOutputs(const RunResult &A, const RunResult &B) {
  if (A.OutputByThread.size() != B.OutputByThread.size())
    return "thread count " + std::to_string(A.OutputByThread.size()) +
           " vs " + std::to_string(B.OutputByThread.size());
  for (size_t T = 0; T < A.OutputByThread.size(); ++T)
    if (A.OutputByThread[T] != B.OutputByThread[T])
      return "thread " + std::to_string(T) + ": \"" + A.OutputByThread[T] +
             "\" vs \"" + B.OutputByThread[T] + "\"";
  return std::string();
}

struct EngineRun {
  RunResult Result;
  std::vector<SpawnRecord> Spawns;
};

/// Runs \p Prog under the reference decision trace with hook \p Hook. Every
/// recorder is a pass-through, so the execution is decision-for-decision the
/// reference execution.
template <typename Hook>
EngineRun runRecorded(const mir::Program &Prog, const DecisionTrace &Full,
                      Hook &H, const OracleConfig &Config,
                      BranchTrace *Branches = nullptr) {
  Machine M(Prog, H);
  if (Branches)
    M.setBranchTracer(Branches);
  M.seedEnvironment(Config.EnvSeed ^ 0x5a5a);
  TraceScheduler Sched(Full);
  EngineRun Out;
  Out.Result = M.run(Sched, Config.MaxInstructions);
  Out.Spawns = M.registry().spawnTable();
  return Out;
}

} // namespace

OracleVerdict CrossEngineOracle::check(const mir::Program &Prog,
                                       const DecisionTrace &Schedule) const {
  obs::TraceSpan Span("explore.oracle", "explore");
  obs::Registry &Reg = obs::Registry::global();
  Reg.counter("explore.oracle_pairs").add(1);

  OracleVerdict V;
  auto Disagree = [&](const char *A, const char *B, const char *Aspect,
                      std::string Detail) {
    V.Agreed = false;
    V.Disagreements.push_back({A, B, Aspect, std::move(Detail)});
  };

  // Reference run. The prefix is extended by the deterministic default
  // policy; the full trace it yields is the schedule every engine records.
  DecisionTrace Full;
  RunResult Ref;
  {
    NullHook Null;
    Machine M(Prog, Null);
    M.seedEnvironment(Config.EnvSeed ^ 0x5a5a);
    TraceScheduler Sched(Schedule);
    Ref = M.run(Sched, Config.MaxInstructions);
    Full = Sched.choices();
  }
  V.BugManifested = isApplicationBug(Ref.Bug);
  V.Bug = Ref.Bug;

  // --- Light: record, solve, validated replay ------------------------------
  {
    LightOptions Opts = LightOptions::both();
    LightRecorder Rec(Opts);
    RecordingLog Log;
    EngineRun Recorded;
    {
      Machine M(Prog, Rec);
      M.seedEnvironment(Config.EnvSeed ^ 0x5a5a);
      TraceScheduler Sched(Full);
      Recorded.Result = M.run(Sched, Config.MaxInstructions);
      Log = Rec.finish(&M.registry());
    }
    if (std::string D = diffOutputs(Ref, Recorded.Result); !D.empty())
      Disagree("recorded", "light", "prints", D);
    if (!Ref.Bug.sameAs(Recorded.Result.Bug))
      Disagree("recorded", "light", "bug",
               Ref.Bug.str() + " vs " + Recorded.Result.Bug.str());

    ReplaySchedule RS = ReplaySchedule::build(Log, Config.LightEngine);
    if (!RS.ok()) {
      Disagree("light", "light", "solve", RS.error());
    } else {
      ReplayDirector Director(RS, /*RealThreads=*/false, /*Validate=*/true);
      Machine M(Prog, Director);
      M.prepareReplay(Log.Spawns);
      RunResult Rep = M.runReplay(Director);
      if (Director.failed())
        Disagree("light", "light", "replay", Director.divergence());
      if (std::string D = diffOutputs(Recorded.Result, Rep); !D.empty())
        Disagree("light", "light-replay", "prints", D);
      if (!Recorded.Result.Bug.sameAs(Rep.Bug))
        Disagree("light", "light-replay", "bug",
                 Recorded.Result.Bug.str() + " vs " + Rep.Bug.str());
    }
  }

  // --- Light V_basic: the explicit read-from ground truth -------------------
  RecordingLog BasicLog;
  {
    LightOptions Opts = LightOptions::basic();
    LightRecorder Rec(Opts);
    Machine M(Prog, Rec);
    M.seedEnvironment(Config.EnvSeed ^ 0x5a5a);
    TraceScheduler Sched(Full);
    M.run(Sched, Config.MaxInstructions);
    BasicLog = Rec.finish(&M.registry());
  }

  // --- Leap: record, linearize, total-order replay --------------------------
  {
    LeapRecorder Rec;
    EngineRun Recorded = runRecorded(Prog, Full, Rec, Config);
    LeapLog Log = Rec.finish();
    if (std::string D = diffOutputs(Ref, Recorded.Result); !D.empty())
      Disagree("recorded", "leap", "prints", D);
    if (!Ref.Bug.sameAs(Recorded.Result.Bug))
      Disagree("recorded", "leap", "bug",
               Ref.Bug.str() + " vs " + Recorded.Result.Bug.str());

    LeapOrder Order = linearizeLeapLog(Log);
    if (!Order.Ok) {
      Disagree("leap", "leap", "solve", Order.Error);
    } else {
      if (fault::Injector::global().shouldFire("oracle.corrupt_leap_order")) {
        // Swap the first adjacent same-thread pair: per-thread counter
        // order makes the corrupted total order unrealizable, so the
        // replay must diverge — the seeded failure the shrinker tests
        // minimize.
        for (size_t I = 1; I < Order.Order.size(); ++I)
          if (Order.Order[I - 1].Thread == Order.Order[I].Thread) {
            std::swap(Order.Order[I - 1], Order.Order[I]);
            break;
          }
      }
      TotalOrderDirector Director(Order.Order, Order.SyscallValues);
      Machine M(Prog, Director);
      M.prepareReplay(Recorded.Spawns);
      RunResult Rep = M.runReplay(Director);
      if (Director.failed())
        Disagree("leap", "leap", "replay", Director.divergence());
      if (std::string D = diffOutputs(Recorded.Result, Rep); !D.empty())
        Disagree("leap", "leap-replay", "prints", D);
      if (!Recorded.Result.Bug.sameAs(Rep.Bug))
        Disagree("leap", "leap-replay", "bug",
                 Recorded.Result.Bug.str() + " vs " + Rep.Bug.str());
    }
  }

  // --- Stride: record, reconstruct, read-from vs Light V_basic --------------
  {
    StrideRecorder Rec;
    EngineRun Recorded = runRecorded(Prog, Full, Rec, Config);
    StrideLog Log = Rec.finish();
    if (std::string D = diffOutputs(Ref, Recorded.Result); !D.empty())
      Disagree("recorded", "stride", "prints", D);
    if (!Ref.Bug.sameAs(Recorded.Result.Bug))
      Disagree("recorded", "stride", "bug",
               Ref.Bug.str() + " vs " + Recorded.Result.Bug.str());

    StrideLinkage Linkage = StrideRecorder::reconstruct(Log);
    for (const DepSpan &S : BasicLog.Spans) {
      if (S.Kind != SpanKind::Read)
        continue;
      auto It = Linkage.SourceOf.find(S.first().pack());
      if (It == Linkage.SourceOf.end())
        continue;
      ++V.ReadFromChecked;
      if (AccessId::unpack(It->second) != S.Src)
        Disagree("light", "stride", "read-from",
                 "span " + S.str() + " links to " +
                     AccessId::unpack(It->second).str());
    }
  }

  // --- Clap: record, symbolic solve, replay ---------------------------------
  if (Config.RunClap) {
    ClapRecorder Rec;
    BranchTrace Trace;
    EngineRun Recorded = runRecorded(Prog, Full, Rec, Config, &Trace);
    ClapRecording Recording = Rec.finish();
    Recording.Branches = Trace;
    Recording.Spawns = Recorded.Spawns;
    Recording.Bug = Recorded.Result.Bug;
    if (std::string D = diffOutputs(Ref, Recorded.Result); !D.empty())
      Disagree("recorded", "clap", "prints", D);
    if (!Ref.Bug.sameAs(Recorded.Result.Bug))
      Disagree("recorded", "clap", "bug",
               Ref.Bug.str() + " vs " + Recorded.Result.Bug.str());

    ClapSolveResult Solved = clapSolve(Prog, Recording);
    V.ClapSupported = Solved.Supported;
    if (!Solved.Supported) {
      // A documented limitation (Section 5.3), not a disagreement.
      V.ClapNote = Solved.UnsupportedWhy;
      Reg.counter("explore.oracle_clap_unsupported").add(1);
    } else if (!Solved.Solved) {
      Disagree("clap", "clap", "solve",
               "constraints unsatisfiable on a feasible recording");
    } else {
      // Clap's constraints pin the recorded branch outcomes and the
      // failure, not the full value flow: a read that never feeds a branch
      // may legitimately link to a different write, so prints are NOT part
      // of Clap's agreement contract — only bug correlation is.
      RunResult Rep = clapReplay(Prog, Recording, Solved);
      if (!Recorded.Result.Bug.sameAs(Rep.Bug))
        Disagree("clap", "clap-replay", "bug",
                 Recorded.Result.Bug.str() + " vs " + Rep.Bug.str());
    }
  } else {
    V.ClapSupported = false;
    V.ClapNote = "not run";
  }

  // --- Chimera: patch, record the patched program, self-fidelity ------------
  // Chimera records a *different* program (the patch inserts lock
  // operations), so decision traces do not transfer and serialized methods
  // may legitimately hide the bug; the oracle checks that whatever Chimera
  // records, it replays faithfully.
  if (Config.RunChimera) {
    mir::Program Patched = Prog;
    analysis::markSharedAccesses(Patched);
    analysis::LocksetAnalysis LA(Patched);
    std::vector<analysis::RacePair> Races = analysis::detectRaces(Patched, LA);
    ChimeraPatch Patch = chimeraPatch(Patched, Races);
    if (!Patch.Patched.verify().empty()) {
      Disagree("chimera", "chimera", "solve",
               "patched program fails verification: " +
                   Patch.Patched.verify());
    } else {
      V.ChimeraRan = true;
      // Search a few seeds for a run that manifests the bug (when the
      // reference did); otherwise the first recording is checked.
      ChimeraLog Log;
      std::vector<SpawnRecord> Spawns;
      RunResult Recorded;
      bool Have = false;
      for (uint64_t Seed = 1; Seed <= Config.ChimeraMaxSeeds; ++Seed) {
        ChimeraRecorder Rec;
        Machine M(Patch.Patched, Rec);
        M.seedEnvironment(Config.EnvSeed ^ 0x5a5a);
        RandomScheduler Sched(Seed);
        RunResult R = M.run(Sched, Config.MaxInstructions);
        if (!Have || (V.BugManifested && !V.ChimeraBugManifested &&
                      isApplicationBug(R.Bug))) {
          Log = Rec.finish();
          Spawns = M.registry().spawnTable();
          Recorded = R;
          Have = true;
          V.ChimeraBugManifested = isApplicationBug(R.Bug);
        }
        if (!V.BugManifested || V.ChimeraBugManifested)
          break;
      }
      ChimeraDirector Director(Log);
      Machine M(Patch.Patched, Director);
      M.prepareReplay(Spawns);
      RunResult Rep = M.runReplay(Director);
      if (Director.failed())
        Disagree("chimera", "chimera", "replay", Director.divergence());
      if (std::string D = diffOutputs(Recorded, Rep); !D.empty())
        Disagree("chimera", "chimera-replay", "prints", D);
      if (!Recorded.Bug.sameAs(Rep.Bug))
        Disagree("chimera", "chimera-replay", "bug",
                 Recorded.Bug.str() + " vs " + Rep.Bug.str());
    }
  }

  if (!V.Agreed)
    Reg.counter("explore.oracle_disagreements").add(1);
  return V;
}
