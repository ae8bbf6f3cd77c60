//===- ci/CiOrchestrator.cpp - Resilient corpus CI pipeline ----------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "ci/CiOrchestrator.h"

#include "analysis/SharedAccessAnalysis.h"
#include "ci/Sandbox.h"
#include "core/LightRecorder.h"
#include "explore/ProgramShrinker.h"
#include "interp/Machine.h"
#include "mir/Parser.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/BinaryIO.h"
#include "support/FaultInjection.h"
#include "support/Timer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>

using namespace light;
using namespace light::ci;
using namespace light::explore;

namespace {

// Child exit protocol (see the header comment).
constexpr int ExitClean = 0;
constexpr int ExitBug = 40;
constexpr int ExitHang = 41;
constexpr int ExitCrash = 42;
constexpr int ExitInfra = 50;

std::string baseName(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Name =
      Slash == std::string::npos ? Path : Path.substr(Slash + 1);
  size_t Dot = Name.rfind(".mir");
  if (Dot != std::string::npos && Dot + 4 == Name.size())
    Name.resize(Dot);
  return Name;
}

/// Extracts the `; ci-fault: <spec>` directive from program text ("" when
/// absent). Only the first directive counts.
std::string ciFaultDirective(const std::string &Text) {
  static const char Marker[] = "; ci-fault:";
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Pos = Line.find_first_not_of(" \t");
    if (Pos == std::string::npos)
      continue;
    if (Line.compare(Pos, sizeof(Marker) - 1, Marker) == 0) {
      std::string Spec = Line.substr(Pos + sizeof(Marker) - 1);
      size_t B = Spec.find_first_not_of(" \t");
      size_t E = Spec.find_last_not_of(" \t\r");
      if (B == std::string::npos)
        return "";
      return Spec.substr(B, E - B + 1);
    }
  }
  return "";
}

/// A Scheduler that delegates to RandomScheduler while recording every
/// choice — how the in-situ confirmation run turns the recording seed into
/// a replayable DecisionTrace.
class CapturingRandomScheduler : public Scheduler {
  RandomScheduler Inner;
  DecisionTrace Choices;

public:
  explicit CapturingRandomScheduler(uint64_t Seed) : Inner(Seed) {}
  ThreadId pick(const std::vector<ThreadId> &Runnable) override {
    ThreadId T = Inner.pick(Runnable);
    Choices.push_back(T);
    return T;
  }
  const DecisionTrace &choices() const { return Choices; }
};

/// The recording child's whole life, run inside the fork sandbox. Returns
/// the protocol exit code; the kill sites die harder than any return.
int recordChildBody(const mir::Program &Prog, const CiOptions &Opts,
                    const std::string &LogPath,
                    const std::string &Directive) {
  fault::Injector &Faults = fault::Injector::global();
  if (!Directive.empty())
    Faults.configure(Directive); // child-only: the fork isolates this
  if (Faults.shouldFire("ci.kill_child.start"))
    ::raise(SIGKILL); // dies before the durable log exists

  LightOptions LO;
  LO.EpochSpans = Opts.EpochSpans;
  LO.DurableLogPath = LogPath;
  LightRecorder Rec(LO);
  Machine M(Prog, Rec);
  Rec.attachRegistry(&M.registry());
  M.seedEnvironment(Opts.RecordSeed ^ 0x5a5a);
  RandomScheduler Sched(Opts.RecordSeed);
  RunResult R = M.run(Sched, Opts.ChildInstructionBudget);

  if (Faults.shouldFire("ci.kill_child.record"))
    ::raise(SIGKILL); // dies after the run, with only epoch flushes on disk

  if (R.Completed) {
    Rec.finish(&M.registry());
    const DurableLogWriter *DL = Rec.durableLog();
    if (!DL || !DL->ok())
      return ExitInfra; // durable write failed: harness trouble, retryable
    if (Faults.shouldFire("ci.kill_child.flush"))
      ::raise(SIGKILL);
    return ExitClean;
  }

  // The run failed: persist everything crash-handler style (final segment,
  // no clean-close marker) and report the failure class via the exit code.
  Rec.crashFlush();
  if (Faults.shouldFire("ci.kill_child.flush"))
    ::raise(SIGKILL);
  if (isApplicationBug(R.Bug))
    return ExitBug;
  bool Hang = R.Bug.What == BugReport::Kind::RuntimeError &&
              R.InstructionsExecuted >= Opts.ChildInstructionBudget;
  return Hang ? ExitHang : ExitCrash;
}

/// Maps a sandbox result onto the record-phase failure classification.
void classifyRecord(const SandboxResult &SR, const CiOptions &Opts,
                    RecordPhase &Out) {
  Out.ExitCode = SR.ExitCode;
  Out.Signal = SR.Signal;
  Out.WatchdogFired = SR.WatchdogFired;
  Out.Seconds = SR.Seconds;
  switch (SR.End) {
  case SandboxEnd::SpawnFailed:
    Out.Failure = FailureClass::Infra;
    Out.Outcome = "spawn-failed";
    return;
  case SandboxEnd::DeadlineKilled:
    Out.Failure = FailureClass::Hang;
    Out.Outcome = "hang";
    return;
  case SandboxEnd::Signaled:
    if (SR.Signal == SIGXCPU) {
      Out.Failure = FailureClass::Hang;
      Out.Outcome = "hang";
    } else if (SR.Signal == SIGABRT && Opts.MemoryBytes > 0) {
      Out.Failure = FailureClass::Oom;
      Out.Outcome = "oom";
    } else {
      Out.Failure = FailureClass::Crash;
      Out.Outcome = "crash";
    }
    return;
  case SandboxEnd::Exited:
    switch (SR.ExitCode) {
    case ExitClean:
      Out.Failure = FailureClass::None;
      Out.Outcome = "clean";
      return;
    case ExitBug:
      Out.Failure = FailureClass::Bug;
      Out.Outcome = "bug";
      return;
    case ExitHang:
      Out.Failure = FailureClass::Hang;
      Out.Outcome = "hang";
      return;
    case ExitInfra:
      Out.Failure = FailureClass::Infra;
      Out.Outcome = "io-failed";
      return;
    default:
      Out.Failure = FailureClass::Crash;
      Out.Outcome = "crash";
      return;
    }
  }
}

/// What the in-situ search phase produced.
struct SearchOutcome {
  bool Found = false;
  bool IsHang = false;
  DecisionTrace Trace;
  BugReport Bug; ///< valid when Found && !IsHang
};

/// True when \p R is an in-situ hang under \p Budget instructions.
bool isInsituHang(const RunResult &R, uint64_t Budget) {
  return !R.Completed && R.Bug.What == BugReport::Kind::RuntimeError &&
         R.InstructionsExecuted >= Budget;
}

/// One in-situ execution of \p Trace (prefix + non-preemptive default).
RunResult runTrace(const mir::Program &Prog, const DecisionTrace &Trace,
                   uint64_t EnvSeed, uint64_t Budget) {
  NullHook Null;
  Machine M(Prog, Null);
  M.seedEnvironment(EnvSeed ^ 0x5a5a);
  TraceScheduler Sched(Trace);
  return M.run(Sched, Budget);
}

/// The explore stage: confirm the recorded failure in-situ when there was
/// one, otherwise (or on a miss) search nearby schedules. Every execution
/// here is in-process and instruction-bounded — the fast path.
SearchOutcome exploreStage(const mir::Program &Prog, const CiOptions &Opts,
                           FailureClass RecordFailure, ExplorePhase &Phase,
                           ShrinkPhase &Shrink) {
  SearchOutcome Out;
  Phase.Ran = true;
  Phase.Strategy = Opts.Strategy;
  Stopwatch Timer;
  fault::Injector &Faults = fault::Injector::global();

  if (Faults.shouldFire("ci.explore_timeout")) {
    // Deterministic timeout edge: no search happens; degrade to the
    // best-so-far schedule, which with zero schedules run is the baseline.
    Phase.TimedOut = true;
    Phase.Seconds = Timer.seconds();
    return Out;
  }

  // In-situ confirmation: the recording seed deterministically pins the
  // schedule, so one bounded re-execution usually recovers the failing
  // trace without any search.
  if (RecordFailure != FailureClass::None &&
      RecordFailure != FailureClass::Infra) {
    NullHook Null;
    Machine M(Prog, Null);
    M.seedEnvironment(Opts.RecordSeed ^ 0x5a5a);
    CapturingRandomScheduler Sched(Opts.RecordSeed);
    RunResult R = M.run(Sched, Opts.InsituInstructionBudget);
    ++Phase.SchedulesRun;
    bool Hang = isInsituHang(R, Opts.InsituInstructionBudget);
    if (Hang)
      ++Phase.Hangs;
    if (R.Bug.What == BugReport::Kind::Deadlock)
      ++Phase.Deadlocks;
    bool Confirmed = false;
    switch (RecordFailure) {
    case FailureClass::Bug:
      Confirmed = isApplicationBug(R.Bug);
      break;
    case FailureClass::Hang:
      Confirmed = Hang || R.Bug.What == BugReport::Kind::Deadlock;
      break;
    case FailureClass::Crash:
      Confirmed = R.Bug.What == BugReport::Kind::RuntimeError && !Hang;
      break;
    default:
      break;
    }
    if (Confirmed) {
      Out.Found = true;
      Out.IsHang = Hang && !isApplicationBug(R.Bug);
      Out.Trace = Sched.choices();
      Out.Bug = R.Bug;
      Phase.BugFound = isApplicationBug(R.Bug);
      Phase.HangFound = Out.IsHang;
      Phase.Seconds = Timer.seconds();
      Phase.SchedulesPerSecond =
          Phase.Seconds > 0 ? Phase.SchedulesRun / Phase.Seconds : 0;
      obs::Registry::global().counter("ci.insitu_confirms").add(1);
      return Out;
    }
  }

  ExploreOptions EO = Opts.Explore;
  EO.EnvSeed = Opts.RecordSeed;
  EO.MaxInstructions = Opts.InsituInstructionBudget;
  EO.WallBudgetSeconds = Opts.ExploreBudgetSeconds;
  EO.TreatHangAsBug = true;
  EO.StopAtFirstBug = true;
  ExploreReport Report = Opts.Strategy == "dfs" ? exploreDfs(Prog, EO)
                                                : explorePct(Prog, EO);
  Phase.SchedulesRun += Report.SchedulesRun;
  Phase.Deadlocks += Report.Deadlocks;
  Phase.Hangs += Report.Hangs;
  Phase.BugFound = Report.BugFound;
  Phase.HangFound = Report.HangFound;
  Phase.TimedOut = Report.TimedOut;
  Phase.Seconds = Timer.seconds();
  Phase.SchedulesPerSecond =
      Phase.Seconds > 0 ? Phase.SchedulesRun / Phase.Seconds : 0;

  if (Report.BugFound) {
    Out.Found = true;
    Out.Trace = Report.FailingTrace;
    Out.Bug = Report.Bug;
  } else if (Report.HangFound) {
    Out.Found = true;
    Out.IsHang = true;
    Out.Trace = Report.HangTrace;
  } else if (Report.TimedOut && !Report.BestTrace.empty()) {
    // Timed out empty-handed: remember the most adversarial schedule seen
    // so the shrink/verify stages have *something* to attach to artifacts.
    Shrink.ReproPath = ""; // nothing verified; recorded via Why upstream
    Out.Trace = Report.BestTrace;
  }
  return Out;
}

/// The shrink + dump stage. Returns the repro actually written (empty
/// schedule + original program when shrinking was skipped).
Repro shrinkStage(const mir::Program &Prog, const CiOptions &Opts,
                  const SearchOutcome &Found, const std::string &ReproPath,
                  ShrinkPhase &Phase) {
  fault::Injector &Faults = fault::Injector::global();
  Repro Out;
  Out.Prog = Prog;
  Out.Schedule = Found.Trace;
  Out.EnvSeed = Opts.RecordSeed;
  Out.Note = Found.IsHang ? "hang: instruction budget exhausted"
                          : "bug: " + Found.Bug.str();
  Phase.OriginalStatements = statementCount(Prog);
  Phase.ShrunkStatements = Phase.OriginalStatements;

  if (Faults.shouldFire("ci.shrink_timeout")) {
    // Deterministic shrink-budget edge: ship the unshrunk repro.
    Phase.TimedOut = true;
  } else {
    Phase.Ran = true;
    uint64_t Budget = Opts.InsituInstructionBudget;
    FailPredicate StillFails;
    if (Found.IsHang) {
      StillFails = [&](const mir::Program &P, const DecisionTrace &S) {
        return isInsituHang(runTrace(P, S, Opts.RecordSeed, Budget), Budget);
      };
    } else {
      BugReport::Kind Want = Found.Bug.What;
      StillFails = [&, Want](const mir::Program &P, const DecisionTrace &S) {
        return runTrace(P, S, Opts.RecordSeed, Budget).Bug.What == Want;
      };
    }
    // Hangs pay the full budget on every probe, so they get a tighter cap.
    ShrinkOptions SO;
    SO.MaxProbes = Found.IsHang ? 48 : 300;
    SO.MaxRounds = Found.IsHang ? 2 : 3;
    ShrinkResult SR = explore::shrink(Prog, Found.Trace, StillFails, SO);
    Phase.ShrunkStatements = SR.ShrunkStatements;
    Phase.Probes = SR.ProbesRun;
    Out.Prog = SR.Shrunk;
    Out.Schedule = SR.Schedule;
  }

  std::string Err = dumpRepro(ReproPath, Out);
  if (Err.empty())
    Phase.ReproPath = ReproPath;
  return Out;
}

/// The verify stage: reload the dumped repro and re-execute it in-situ,
/// expecting the same failure class.
void verifyStage(const CiOptions &Opts, const SearchOutcome &Found,
                 const std::string &ReproPath, VerifyPhase &Phase) {
  Phase.Ran = true;
  fault::Injector &Faults = fault::Injector::global();
  std::string Err;
  std::optional<Repro> R = loadRepro(ReproPath, &Err);
  if (!R) {
    Phase.Diverged = true;
    Phase.Detail = "repro unreadable: " + Err;
    return;
  }
  RunResult Run = runTrace(R->Prog, R->Schedule, R->EnvSeed,
                           Opts.InsituInstructionBudget);
  bool Match =
      Found.IsHang
          ? isInsituHang(Run, Opts.InsituInstructionBudget) ||
                Run.Bug.What == BugReport::Kind::Deadlock
          : Run.Bug.What == Found.Bug.What;
  if (Faults.shouldFire("ci.verify_diverge")) {
    Match = false;
    Phase.Detail = "injected divergence (ci.verify_diverge)";
  }
  if (Match) {
    Phase.Reproduced = true;
  } else {
    Phase.Diverged = true;
    if (Phase.Detail.empty())
      Phase.Detail = Run.Completed
                         ? "repro ran clean"
                         : "repro failed differently: " + Run.Bug.str();
  }
}

/// Fork-vs-in-situ throughput calibration on \p Prog.
void calibrate(const mir::Program &Prog, const CiOptions &Opts,
               CalibrationInfo &Out) {
  ExploreOptions EO = Opts.Explore;
  EO.EnvSeed = Opts.RecordSeed;
  EO.MaxInstructions = Opts.InsituInstructionBudget;
  EO.StopAtFirstBug = false;
  EO.WallBudgetSeconds = 0;

  // Fork path: one sandboxed process per schedule, the cost the in-situ
  // fast path avoids.
  SandboxOptions SO;
  SO.DeadlineSeconds = Opts.DeadlineSeconds;
  SO.CpuSeconds = Opts.CpuSeconds;
  Stopwatch ForkTimer;
  uint64_t ForkOk = 0;
  for (uint64_t I = 1; I <= Opts.CalibrationForkRuns; ++I) {
    SandboxResult SR = runInSandbox(SO, [&Prog, &EO, I] {
      ExplorationDriver Driver(Prog, EO);
      Driver.runPct(I, EO.PctDepth, 64);
      return 0;
    });
    if (SR.End == SandboxEnd::Exited)
      ++ForkOk;
  }
  double ForkSeconds = ForkTimer.seconds();

  // In-situ path: the same PCT runs, in-process.
  ExploreOptions IO = EO;
  IO.ScheduleBudget = Opts.CalibrationInsituSchedules;
  IO.PctSeeds = Opts.CalibrationInsituSchedules;
  ExploreReport Insitu = explorePct(Prog, IO);

  Out.Ran = true;
  Out.ForkRuns = ForkOk;
  Out.InsituRuns = Insitu.SchedulesRun;
  Out.ForkSchedulesPerSecond = ForkSeconds > 0 ? ForkOk / ForkSeconds : 0;
  Out.InsituSchedulesPerSecond = Insitu.schedulesPerSecond();
  Out.Speedup = Out.ForkSchedulesPerSecond > 0
                    ? Out.InsituSchedulesPerSecond / Out.ForkSchedulesPerSecond
                    : 0;
  obs::Registry &Reg = obs::Registry::global();
  Reg.gauge("ci.calibration.insitu_speedup_x")
      .set(static_cast<int64_t>(Out.Speedup));
}

bool ensureDir(const std::string &Dir) {
  struct stat St;
  if (::stat(Dir.c_str(), &St) == 0)
    return S_ISDIR(St.st_mode);
  return ::mkdir(Dir.c_str(), 0755) == 0;
}

} // namespace

ProgramVerdict light::ci::runProgramCi(const std::string &Path,
                                       const CiOptions &Opts) {
  obs::TraceSpan Span("ci.program", "ci");
  obs::Registry &Reg = obs::Registry::global();
  Reg.counter("ci.programs").add(1);
  Stopwatch Total;

  ProgramVerdict PV;
  PV.Name = baseName(Path);
  PV.Path = Path;

  std::string ArtifactDir =
      Opts.ArtifactDir.empty() ? makeTempPath("ci-artifacts")
                               : Opts.ArtifactDir;
  if (!ensureDir(ArtifactDir)) {
    PV.What = Verdict::InfraError;
    PV.Failure = FailureClass::Infra;
    PV.Why = "cannot create artifact directory '" + ArtifactDir + "'";
    PV.Record.Outcome = "io-failed";
    PV.Record.Failure = FailureClass::Infra;
    PV.Record.Attempts = 1;
    PV.Seconds = Total.seconds();
    return PV;
  }

  // Load + analyze the program. A parse failure is an infra error by
  // definition: nothing ran, nothing can be salvaged.
  std::ifstream In(Path);
  std::stringstream Buf;
  if (In)
    Buf << In.rdbuf();
  std::string Text = Buf.str();
  mir::ParseResult Parsed = mir::parseProgram(Text);
  std::string VerifyErr = Parsed.Ok ? Parsed.Prog.verify() : "";
  if (!In || !Parsed.Ok || !VerifyErr.empty()) {
    PV.What = Verdict::InfraError;
    PV.Failure = FailureClass::Infra;
    PV.Why = !In ? "cannot read '" + Path + "'"
                 : "unparseable program: " +
                       (Parsed.Ok ? VerifyErr : Parsed.Error);
    PV.Record.Outcome = "io-failed";
    PV.Record.Failure = FailureClass::Infra;
    PV.Record.Attempts = 1;
    PV.Seconds = Total.seconds();
    Reg.counter("ci.verdict.infra-error").add(1);
    return PV;
  }
  mir::Program Prog = std::move(Parsed.Prog);
  analysis::markSharedAccesses(Prog);
  std::string Directive = ciFaultDirective(Text);

  std::string LogPath = ArtifactDir + "/" + PV.Name + ".lightlog";
  std::string ReproPath = ArtifactDir + "/" + PV.Name + ".repro.mir";

  // --- Record stage: sandboxed first contact, infra failures retried with
  // exponential backoff, program failures taken as the signal. ---
  SandboxOptions SBO;
  SBO.DeadlineSeconds = Opts.DeadlineSeconds;
  SBO.CpuSeconds = Opts.CpuSeconds;
  SBO.MemoryBytes = Opts.MemoryBytes;
  double Backoff = Opts.BackoffInitialSeconds;
  for (uint32_t Attempt = 1;; ++Attempt) {
    PV.Record.Attempts = Attempt;
    std::remove(LogPath.c_str());
    SandboxResult SR = runInSandbox(SBO, [&Prog, &Opts, &LogPath,
                                          &Directive] {
      return recordChildBody(Prog, Opts, LogPath, Directive);
    });
    classifyRecord(SR, Opts, PV.Record);
    if (PV.Record.Failure != FailureClass::Infra)
      break;
    if (Attempt > Opts.MaxInfraRetries)
      break;
    ++PV.InfraRetries;
    Reg.counter("ci.retries").add(1);
    std::this_thread::sleep_for(std::chrono::duration<double>(Backoff));
    Backoff *= 2;
  }
  PV.Failure = PV.Record.Failure;

  // --- Salvage stage: whenever the recording did not end cleanly, scavenge
  // whatever the child left on disk. Even a final infra failure may sit on
  // top of a perfectly usable prefix from an earlier attempt's epochs. ---
  bool RecordedClean = PV.Record.Failure == FailureClass::None;
  if (!RecordedClean) {
    PV.Salvage.Attempted = true;
    SalvageOutcome S = salvageRecording(LogPath);
    PV.Salvage.Loaded = S.Loaded;
    PV.Salvage.UsablePrefix = S.UsablePrefix;
    PV.Salvage.CleanClose = S.Report.CleanClose;
    PV.Salvage.Salvaged = S.Report.Salvaged;
    PV.Salvage.Spans = S.Log.Spans.size();
    PV.Salvage.Syscalls = S.Log.Syscalls.size();
    PV.Salvage.SegmentsRecovered = S.Report.SegmentsRecovered;
    PV.Salvage.SegmentsDropped = S.Report.SegmentsDropped;
    PV.Salvage.Error = S.Error;
  }

  // --- Explore / shrink / verify: all in-situ. Infra-final outcomes skip
  // the search (the program itself was never the problem). ---
  SearchOutcome Found;
  if (PV.Record.Failure != FailureClass::Infra) {
    Found = exploreStage(Prog, Opts, PV.Record.Failure, PV.Explore,
                         PV.Shrink);
    if (Found.Found) {
      shrinkStage(Prog, Opts, Found, ReproPath, PV.Shrink);
      verifyStage(Opts, Found, ReproPath, PV.Verify);
    }
  }

  // --- Verdict assembly (the state machine of DESIGN.md section 9). ---
  if (RecordedClean) {
    if (Found.Found && PV.Verify.Reproduced) {
      PV.What = Verdict::Flaky;
      PV.Why = "recorded clean, but a nearby schedule fails (verified): " +
               (Found.IsHang ? std::string("hang") : Found.Bug.str());
    } else if (Found.Found) {
      PV.What = Verdict::Pass;
      PV.Why = "recorded clean; a candidate failing schedule did not "
               "verify and was discarded";
    } else {
      PV.What = Verdict::Pass;
      PV.Why = PV.Explore.TimedOut
                   ? "recorded clean; exploration hit its wall budget "
                     "without a failure"
                   : "recorded clean; no failing schedule within budget";
    }
  } else if (PV.Record.Failure == FailureClass::Infra) {
    if (PV.Salvage.UsablePrefix) {
      PV.What = Verdict::SalvagedPartial;
      PV.Why = "harness failed after " +
               std::to_string(PV.Record.Attempts) +
               " attempt(s), but a usable log prefix was salvaged";
    } else {
      PV.What = Verdict::InfraError;
      PV.Why = "harness failure (" + PV.Record.Outcome + ") after " +
               std::to_string(PV.Record.Attempts) + " attempt(s)";
    }
  } else if (Found.Found && PV.Verify.Reproduced) {
    PV.What = Verdict::Reproduced;
    PV.Why = std::string(failureClassName(PV.Record.Failure)) +
             " reproduced by a verified repro" +
             (PV.Shrink.TimedOut ? " (unshrunk: shrink budget expired)"
                                 : "");
  } else if (PV.Salvage.UsablePrefix) {
    PV.What = Verdict::SalvagedPartial;
    PV.Why = std::string(failureClassName(PV.Record.Failure)) +
             " at record; log prefix salvaged but no verified repro (" +
             (Found.Found ? "verify diverged" : "explore found nothing") +
             ")";
  } else {
    PV.What = Verdict::InfraError;
    PV.Why = std::string(failureClassName(PV.Record.Failure)) +
             " at record and the child left no usable recording";
  }

  if (Opts.Calibrate)
    calibrate(Prog, Opts, PV.Calibration);

  PV.Seconds = Total.seconds();
  Reg.counter(std::string("ci.verdict.") + verdictName(PV.What)).add(1);
  return PV;
}

CorpusSummary light::ci::runCorpusCi(const std::vector<std::string> &Paths,
                                     const CiOptions &Opts) {
  obs::TraceSpan Span("ci.corpus", "ci");
  Stopwatch Total;
  CorpusSummary Out;
  Out.Strategy = Opts.Strategy;
  Out.DeadlineSeconds = Opts.DeadlineSeconds;
  for (const std::string &P : Paths)
    Out.Programs.push_back(runProgramCi(P, Opts));
  Out.Seconds = Total.seconds();
  return Out;
}

bool light::ci::listCorpusDir(const std::string &Dir,
                              std::vector<std::string> &Out,
                              std::string &Error) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D) {
    Error = "cannot open directory '" + Dir + "'";
    return false;
  }
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() > 4 && Name.compare(Name.size() - 4, 4, ".mir") == 0)
      Out.push_back(Dir + "/" + Name);
  }
  ::closedir(D);
  std::sort(Out.begin(), Out.end());
  return true;
}
