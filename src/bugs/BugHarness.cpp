//===- bugs/BugHarness.cpp - Record/solve/replay drivers -------------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "bugs/BugHarness.h"

#include "analysis/LocksetAnalysis.h"
#include "analysis/RaceDetector.h"
#include "baselines/ChimeraEngine.h"
#include "baselines/ClapEngine.h"
#include "core/LightRecorder.h"
#include "core/ReplayDirector.h"
#include "core/ReplaySchedule.h"
#include "obs/Trace.h"
#include "support/Timer.h"

using namespace light;
using namespace light::bugs;

namespace {

/// True for failures that count as application bugs (Definition 3.2), as
/// opposed to replay anomalies.
bool isApplicationBug(const BugReport &B) {
  switch (B.What) {
  case BugReport::Kind::AssertionFailure:
  case BugReport::Kind::NullPointer:
  case BugReport::Kind::DivideByZero:
  case BugReport::Kind::ArrayBounds:
  case BugReport::Kind::Deadlock:
    return true;
  default:
    return false;
  }
}

} // namespace

std::optional<uint64_t> light::bugs::findBuggySeed(const mir::Program &Prog,
                                                   uint64_t MaxSeeds,
                                                   BugReport *Out) {
  for (uint64_t Seed = 1; Seed <= MaxSeeds; ++Seed) {
    NullHook Null;
    Machine M(Prog, Null);
    M.seedEnvironment(Seed ^ 0x5a5a);
    RandomScheduler Sched(Seed);
    RunResult R = M.run(Sched);
    if (R.Bug.happened() && isApplicationBug(R.Bug)) {
      if (Out)
        *Out = R.Bug;
      return Seed;
    }
  }
  return std::nullopt;
}

ToolAttempt light::bugs::lightReproduce(const BugBenchmark &Bench,
                                        uint64_t Seed, LightOptions Opts,
                                        smt::SolverEngine Engine,
                                        unsigned SolverShards) {
  ToolAttempt Out;
  Out.Seed = Seed;

  // O2 guards from the lock-consistency analysis (Lemma 4.2).
  analysis::LocksetAnalysis LA(Bench.Prog);
  GuardSpec Guards = LA.consistentlyGuarded();

  LightRecorder Rec(Opts);
  if (Opts.EnableO2)
    Rec.setGuards(Guards);

  Stopwatch RecordTimer;
  RunResult Recorded;
  RecordingLog Log;
  {
    obs::TraceSpan Phase("harness.record", "harness");
    Machine M(Bench.Prog, Rec);
    M.seedEnvironment(Seed ^ 0x5a5a);
    RandomScheduler Sched(Seed);
    Recorded = M.run(Sched);
    Log = Rec.finish(&M.registry());
    Phase.arg("spans", Log.Spans.size());
  }
  Out.RecordSeconds = RecordTimer.seconds();
  Out.SpaceLongs = Log.spaceLongs();
  Out.BugFound = Recorded.Bug.happened();
  if (!Out.BugFound) {
    Out.Note = "bug did not manifest under this seed";
    return Out;
  }

  Stopwatch SolveTimer;
  ReplaySchedule RS = ReplaySchedule::build(Log, Engine, {}, SolverShards);
  Out.SolveSeconds = SolveTimer.seconds();
  Out.SolverStats = RS.solveStats();
  Out.SolverStats.Values.clear();
  if (!RS.ok()) {
    Out.Note = "constraint system unsatisfiable: " + RS.error();
    return Out;
  }

  Stopwatch ReplayTimer;
  obs::TraceSpan ReplayPhase("harness.replay", "harness");
  ReplayDirector Director(RS, /*RealThreads=*/false, /*Validate=*/true);
  Machine RM(Bench.Prog, Director);
  RM.prepareReplay(Log.Spawns);
  RunResult Replayed = RM.runReplay(Director);
  Director.publishMetrics();
  Out.ReplaySeconds = ReplayTimer.seconds();

  Out.Reproduced = Recorded.Bug.sameAs(Replayed.Bug);
  if (!Out.Reproduced)
    Out.Note = "replayed " + Replayed.Bug.str() + " instead of " +
               Recorded.Bug.str() +
               (Director.failed() ? (" (" + Director.divergence() + ")")
                                  : std::string());
  return Out;
}

ToolAttempt light::bugs::clapReproduce(const BugBenchmark &Bench,
                                       uint64_t Seed) {
  ToolAttempt Out;
  Out.Seed = Seed;

  ClapRecorder Rec;
  BranchTrace Trace;
  Stopwatch RecordTimer;
  Machine M(Bench.Prog, Rec);
  M.setBranchTracer(&Trace);
  M.seedEnvironment(Seed ^ 0x5a5a);
  RandomScheduler Sched(Seed);
  RunResult Recorded = M.run(Sched);
  ClapRecording Recording = Rec.finish();
  Recording.Branches = Trace;
  Recording.Spawns = M.registry().spawnTable();
  Recording.Bug = Recorded.Bug;
  Out.RecordSeconds = RecordTimer.seconds();
  Out.SpaceLongs = Recording.spaceLongs();
  Out.BugFound = Recorded.Bug.happened();
  if (!Out.BugFound) {
    Out.Note = "bug did not manifest under this seed";
    return Out;
  }

  ClapSolveResult Solved = clapSolve(Bench.Prog, Recording);
  Out.SolveSeconds = Solved.SolveSeconds;
  if (!Solved.Supported) {
    Out.Note = "outside the solver model: " + Solved.UnsupportedWhy;
    return Out;
  }
  if (!Solved.Solved) {
    Out.Note = "symbolic constraint system unsatisfiable";
    return Out;
  }

  Stopwatch ReplayTimer;
  RunResult Replayed = clapReplay(Bench.Prog, Recording, Solved);
  Out.ReplaySeconds = ReplayTimer.seconds();
  Out.Reproduced = Recorded.Bug.sameAs(Replayed.Bug);
  if (!Out.Reproduced)
    Out.Note = "replayed " + Replayed.Bug.str() + " instead of " +
               Recorded.Bug.str();
  return Out;
}

ToolAttempt light::bugs::chimeraReproduce(const BugBenchmark &Bench,
                                          uint64_t MaxSeeds) {
  ToolAttempt Out;

  analysis::LocksetAnalysis LA(Bench.Prog);
  std::vector<analysis::RacePair> Races =
      analysis::detectRaces(Bench.Prog, LA);
  ChimeraPatch Patch = chimeraPatch(Bench.Prog, Races);

  // The matrix asks whether Chimera reproduces the *benchmark's* failure,
  // so pin down what that failure looks like on the unpatched program.
  // Serializing methods can introduce new failures of its own (a patch
  // lock held across a barrier arrival deadlocks every schedule); those
  // must not count as finding the bug.
  BugReport Ref;
  findBuggySeed(Bench.Prog, MaxSeeds, &Ref);

  // Search for a schedule of the *patched* program that still fails.
  for (uint64_t Seed = 1; Seed <= MaxSeeds; ++Seed) {
    ChimeraRecorder Rec;
    Stopwatch RecordTimer;
    Machine M(Patch.Patched, Rec);
    M.seedEnvironment(Seed ^ 0x5a5a);
    RandomScheduler Sched(Seed);
    RunResult Recorded = M.run(Sched);
    if (!Recorded.Bug.happened() || !isApplicationBug(Recorded.Bug))
      continue;
    // Loose match against the reference failure (kind + assertion id):
    // patched code shifts PCs, so the exact-location correlation of
    // sameAs() cannot transfer across the patch.
    if (Ref.happened() && (Recorded.Bug.What != Ref.What ||
                           Recorded.Bug.BugId != Ref.BugId))
      continue;

    Out.Seed = Seed;
    Out.BugFound = true;
    ChimeraLog Log = Rec.finish();
    Log.Spawns = M.registry().spawnTable();
    Out.RecordSeconds = RecordTimer.seconds();
    Out.SpaceLongs = Log.spaceLongs();

    Stopwatch ReplayTimer;
    ChimeraDirector Director(Log);
    Machine RM(Patch.Patched, Director);
    RM.prepareReplay(Log.Spawns);
    RunResult Replayed = RM.runReplay(Director);
    Out.ReplaySeconds = ReplayTimer.seconds();
    Out.Reproduced = Recorded.Bug.sameAs(Replayed.Bug);
    if (!Out.Reproduced)
      Out.Note = "replayed " + Replayed.Bug.str() + " instead of " +
                 Recorded.Bug.str();
    return Out;
  }

  Out.Note = Patch.SerializedFunctions.empty()
                 ? "bug did not manifest in " + std::to_string(MaxSeeds) +
                       " schedules"
                 : "patch serialized " +
                       std::to_string(Patch.SerializedFunctions.size()) +
                       " methods; bug hidden";
  return Out;
}
