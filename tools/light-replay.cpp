//===- tools/light-replay.cpp - The Light command-line driver --------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// The user-facing pipeline driver, mirroring the three components of the
/// paper's prototype (Section 5.1): the *transformer* (here: the MIR
/// loader + shared-access analysis), the *recorder*, and the *replayer*
/// (offline schedule computation + directed re-execution).
///
/// \code
///   light-replay list
///   light-replay print  <bug|file.mir>
///   light-replay run    <bug|file.mir> [seed]      # plain execution
///   light-replay hunt   <bug|file.mir> [max-seeds] # find a failing seed
///   light-replay record <bug|file.mir> [seed] [log]
///   light-replay record <bug|file.mir> [seed] [log] --nodes N
///   light-replay show   <log>
///   light-replay replay <bug|file.mir> <log>
///   light-replay crashtest <bug|file.mir> [seed] [log]
///   light-replay explore <bug|file.mir>            # schedule search
/// \endcode
///
/// Flags are position-independent and accepted by every subcommand:
///
///   --z3                   solve with the Z3 backend instead of the
///                          built-in IDL solver (record verification,
///                          replay)
///   --no-verify            record only; skip the solve + validated replay
///                          pass that `record` runs by default
///   --epoch-spans <N>      durable-log mode: close an epoch after N
///                          pending spans per thread (record, crashtest)
///   --epoch-ms <N>         durable-log mode: close an epoch after N
///                          milliseconds per thread
///   --fault <spec>         arm the deterministic fault injector (same
///                          grammar as the LIGHT_FAULT environment
///                          variable, see support/FaultInjection.h)
///   --metrics-json <file>  write the merged metrics-registry snapshot
///   --trace-out <file>     arm the event tracer and write Chrome
///                          trace-event JSON (chrome://tracing, Perfetto)
///
/// `explore` flags (see src/explore):
///
///   --explore pct|dfs      search strategy: PCT randomized priorities
///                          (default) or bounded-preemption systematic DFS
///   --preemption-bound <N> DFS: max preempting switches per schedule
///   --pct-depth <D>        PCT: bug-depth parameter d
///   --seeds <N>            PCT: seeds to try
///   --budget <N>           max schedules to execute
///   --oracle               run the cross-engine differential oracle on
///                          the failing schedule (or the default schedule
///                          when no bug was found)
///   --shrink               ddmin-minimize the failing (program, schedule)
///                          pair and dump a `.mir` repro
///   --repro-out <file>     where --shrink writes the repro
///                          (default <target>.repro.mir)
///
/// A <bug> is one of the built-in Figure-6 benchmarks; anything else is
/// treated as a path to a textual MIR file (see mir/Parser.h).
///
/// `record --nodes N` is the multi-node pipeline: fork one process per
/// node (the program's unary `node(i)` function), each recording into its
/// own durable epoch + message log over a shared pipe fabric; then salvage
/// every node log independently, compute the maximal causal cut, merge the
/// per-node constraint systems with send->recv cross-node edges, solve one
/// global schedule, and verify each node's projected replay in isolation
/// against redelivered messages. The result is a full global schedule or a
/// structured partial cut — never a wrong schedule.
///
/// `crashtest` is the end-to-end fault-tolerance exercise: it forks a
/// child that records the buggy run with the durable epoch log enabled
/// and dies at the bug *without* closing the log cleanly (crash-handler
/// semantics), then the parent salvages the torn LIGHT003 prefix, solves
/// it, and verifies the replay reproduces the original bug. With
/// `--fault log.crash_at_epoch=N` the child's log write itself is killed
/// mid-epoch (SIGKILL semantics: a torn segment tail on disk), and the
/// parent verifies salvage recovers the valid prefix and replays it
/// without divergence.
///
//===----------------------------------------------------------------------===//

#include "analysis/SharedAccessAnalysis.h"
#include "bugs/BugHarness.h"
#include "ci/CiOrchestrator.h"
#include "explore/CrossEngineOracle.h"
#include "explore/ExplorationDriver.h"
#include "explore/ProgramShrinker.h"
#include "core/LightRecorder.h"
#include "core/ReplayDirector.h"
#include "core/ReplaySchedule.h"
#include "core/WindowedSchedule.h"
#include "dist/DistRunner.h"
#include "dist/NodeSet.h"
#include "runtime/ChannelTransport.h"
#include "trace/SegmentReader.h"
#include "interp/Machine.h"
#include "mir/Parser.h"
#include "obs/Args.h"
#include "obs/Metrics.h"
#include "obs/Progress.h"
#include "obs/Trace.h"
#include "support/BinaryIO.h"
#include "support/FaultInjection.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace light;
using namespace light::bugs;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: light-replay <command> ... [flags]\n"
      "  list                                 the built-in bug benchmarks\n"
      "  print  <bug|file.mir>                dump the program\n"
      "  run    <bug|file.mir> [seed]         execute under a random "
      "schedule\n"
      "  hunt   <bug|file.mir> [max-seeds]    search for a failing "
      "schedule\n"
      "  record <bug|file.mir> [seed] [log]   record with Light, then\n"
      "                                       solve + validated replay\n"
      "                                       (--nodes N: fork N node\n"
      "                                       processes, salvage + causal\n"
      "                                       cut + global solve + per-node\n"
      "                                       replay)\n"
      "  show   <log>                         dump a recording\n"
      "  replay <bug|file.mir> <log>          solve + validated replay\n"
      "  crashtest <bug|file.mir> [seed] [log]\n"
      "                                       crash a recording child "
      "mid-run,\n"
      "                                       salvage the durable log, "
      "verify\n"
      "                                       the replay reproduces the bug\n"
      "  explore <bug|file.mir>               search the schedule space "
      "for a\n"
      "                                       failing interleaving\n"
      "  ci <corpus-dir|file.mir...>          resilient corpus pipeline:\n"
      "                                       sandboxed record -> salvage "
      "->\n"
      "                                       explore -> shrink -> verify\n"
      "flags (any position, any subcommand):\n"
      "  --z3                   use the Z3 solver backend\n"
      "  --no-verify            skip record's solve+replay verification\n"
      "  --epoch-spans <N>      durable epoch log: flush every N spans\n"
      "  --epoch-ms <N>         durable epoch log: flush every N ms\n"
      "  --stream               replay: stream the log segment by segment\n"
      "                         and solve in bounded windows instead of\n"
      "                         loading + solving monolithically\n"
      "  --window-spans <N>     --stream window size in spans "
      "(default 32768);\n"
      "                         on WindowTooSmall the pass retries with a\n"
      "                         doubled window (bounded)\n"
      "  --nodes <N>            record: run N forked node processes (the\n"
      "                         program must define a unary `node`\n"
      "                         function); logs land at <log>.node<i>\n"
      "  --fault <spec>         arm fault injection (LIGHT_FAULT grammar)\n"
      "  --metrics-json <file>  write the metrics snapshot as JSON\n"
      "  --trace-out <file>     write a Chrome trace of the run\n"
      "  --progress[=N]         heartbeat status line every N seconds\n"
      "                         (default 1; also re-flushes --metrics-json\n"
      "                         each tick so killed runs keep a snapshot)\n"
      "explore flags:\n"
      "  --explore pct|dfs      strategy (default pct)\n"
      "  --preemption-bound <N> DFS preemption bound (default 2)\n"
      "  --pct-depth <D>        PCT bug-depth d (default 3)\n"
      "  --seeds <N>            PCT seeds to try (default 1000)\n"
      "  --budget <N>           max schedules (default 50000)\n"
      "  --oracle               cross-engine differential oracle on the\n"
      "                         failing (or default) schedule\n"
      "  --shrink               ddmin-minimize the failure, dump a repro\n"
      "  --repro-out <file>     repro path (default <target>.repro.mir)\n"
      "ci flags:\n"
      "  --ci-json <file>       write the light-ci-v1 summary JSON\n"
      "  --ci-artifacts <dir>   durable logs + repros land here\n"
      "  --ci-deadline <sec>    per-child watchdog deadline (default 5)\n"
      "  --ci-retries <N>       max infra-failure retries (default 2)\n"
      "  --ci-seed <N>          recording seed (default 1)\n"
      "  --ci-explore-budget <sec>\n"
      "                         in-situ search wall budget (default 2)\n"
      "  --ci-calibration       measure fork-vs-in-situ throughput\n");
  return 2;
}

std::optional<mir::Program> loadProgram(const std::string &Name) {
  for (BugBenchmark &B : makeBugSuite())
    if (B.Name == Name)
      return std::move(B.Prog);
  for (BugBenchmark &B : makeSyncBugSuite())
    if (B.Name == Name)
      return std::move(B.Prog);
  for (BugBenchmark &B : makeDistBugSuite())
    if (B.Name == Name)
      return std::move(B.Prog);

  std::ifstream In(Name);
  if (!In) {
    std::fprintf(stderr, "error: no built-in bug and no file named '%s'\n",
                 Name.c_str());
    return std::nullopt;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  mir::ParseResult Parsed = mir::parseProgram(Buf.str());
  if (!Parsed.Ok) {
    std::fprintf(stderr, "error: %s: %s\n", Name.c_str(),
                 Parsed.Error.c_str());
    return std::nullopt;
  }
  std::string Verify = Parsed.Prog.verify();
  if (!Verify.empty()) {
    std::fprintf(stderr, "error: %s: %s\n", Name.c_str(), Verify.c_str());
    return std::nullopt;
  }
  analysis::markSharedAccesses(Parsed.Prog);
  return std::move(Parsed.Prog);
}

void printOutcome(const RunResult &R) {
  if (R.Completed)
    std::printf("run completed cleanly (%llu shared accesses)\n",
                static_cast<unsigned long long>(R.SharedAccesses));
  else
    std::printf("run failed: %s\n", R.Bug.str().c_str());
  for (size_t T = 0; T < R.OutputByThread.size(); ++T)
    if (!R.OutputByThread[T].empty()) {
      std::string Flat = R.OutputByThread[T];
      for (char &Ch : Flat)
        if (Ch == '\n')
          Ch = ' ';
      std::printf("  t%zu printed: %s\n", T, Flat.c_str());
    }
}

/// Prints the durability verdict of a load: format version, clean close
/// vs. salvage, and how much of a torn log was recovered/cut.
void printLoadReport(const LogLoadReport &Report) {
  if (Report.FormatVersion != 2 && Report.FormatVersion != 3)
    return;
  const char *Fmt = Report.FormatVersion == 3 ? "LIGHT003" : "LIGHT002";
  if (Report.CleanClose) {
    std::printf("durable log: %s, closed cleanly, %llu segment(s)\n", Fmt,
                static_cast<unsigned long long>(Report.SegmentsRecovered));
    return;
  }
  std::printf("durable log: %s, SALVAGED %llu segment(s)"
              " (dropped %llu segment(s), %llu words of torn tail)\n",
              Fmt,
              static_cast<unsigned long long>(Report.SegmentsRecovered),
              static_cast<unsigned long long>(Report.SegmentsDropped),
              static_cast<unsigned long long>(Report.WordsDropped));
}

/// Solves \p Log and runs one validated replay, printing the summary.
/// When \p ExpectBug is non-null the replay must additionally end in a
/// bug report matching it (Theorem 1's correlation). \p Validate=false
/// runs best-effort (gates enforced, read sources unchecked) — the right
/// mode for a torn prefix whose open spans died with the recorder.
/// Returns 0 on a faithful replay.
int replayWithPlan(const mir::Program &Prog, const RecordingLog &Log,
                   const ReplaySchedule &Plan,
                   const BugReport *ExpectBug = nullptr,
                   bool Validate = true);

int solveAndReplay(const mir::Program &Prog, const RecordingLog &Log,
                   bool UseZ3, const BugReport *ExpectBug = nullptr,
                   bool Validate = true) {
  ReplaySchedule Plan = ReplaySchedule::build(
      Log, UseZ3 ? smt::SolverEngine::Z3 : smt::SolverEngine::Idl);
  if (!Plan.ok()) {
    std::fprintf(stderr, "error: %s\n", Plan.error().c_str());
    return 1;
  }
  std::printf("solved %zu-turn schedule in %.2f ms (%llu of %llu "
              "noninterference pairs decided before search)\n",
              Plan.order().size(), Plan.solveStats().SolveSeconds * 1000,
              static_cast<unsigned long long>(Plan.pairStats().Decided),
              static_cast<unsigned long long>(Plan.pairStats().Pairs));
  return replayWithPlan(Prog, Log, Plan, ExpectBug, Validate);
}

/// The execution half of solveAndReplay, shared with the streamed
/// (windowed) path: runs one replay of \p Plan and checks faithfulness.
int replayWithPlan(const mir::Program &Prog, const RecordingLog &Log,
                   const ReplaySchedule &Plan, const BugReport *ExpectBug,
                   bool Validate) {
  ReplayDirector Director(Plan, /*RealThreads=*/false, Validate);
  Machine M(Prog, Director);
  M.prepareReplay(Log.Spawns);
  RunResult R = M.runReplay(Director);
  Director.publishMetrics();
  printOutcome(R);
  if (Director.failed()) {
    std::printf("REPLAY DIVERGED: %s\n",
                Director.divergenceInfo().str().c_str());
    return 1;
  }
  // The interpreter detects structural divergence (spawn mismatch, a turn
  // for a thread that never appears) on its own, without the director
  // noticing — that is just as much a failed replay.
  if (R.Bug.What == BugReport::Kind::ReplayDivergence) {
    std::printf("REPLAY DIVERGED: %s\n", R.Bug.str().c_str());
    return 1;
  }
  ReplayStats Stats = Director.stats();
  std::printf("%s: %llu reads validated, %llu blind writes "
              "suppressed\n",
              Validate ? "replay faithful" : "replay completed (unvalidated)",
              static_cast<unsigned long long>(Stats.ValidatedReads),
              static_cast<unsigned long long>(Stats.BlindSuppressed));
  if (ExpectBug) {
    if (R.Bug.sameAs(*ExpectBug)) {
      std::printf("bug reproduced: %s\n", R.Bug.str().c_str());
    } else {
      std::printf("BUG NOT REPRODUCED: wanted %s, got %s\n",
                  ExpectBug->str().c_str(),
                  R.Completed ? "a clean run" : R.Bug.str().c_str());
      return 1;
    }
  }
  return 0;
}

/// `replay --stream`: pulls the durable log one epoch segment at a time
/// and solves it in bounded windows, so peak memory holds one window's
/// constraint system instead of the whole trace's. Salvaged (torn) logs
/// replay unvalidated, matching crashtest's salvage semantics.
///
/// WindowTooSmall is an adaptive, not fatal, condition: a dependence that
/// crosses a frozen window aborts that pass, and the stream restarts from
/// the log with a doubled window. The doubling is bounded — a log whose
/// longest dependence exceeds every retry is a configuration error the
/// user must see, not an infinite loop. Each retry counts into the
/// stream.window_retries metric.
int streamedSolveAndReplay(const mir::Program &Prog, const std::string &Path,
                           bool UseZ3, size_t WindowSpans) {
  constexpr unsigned MaxWindowRetries = 5;
  for (unsigned Attempt = 0;; ++Attempt) {
    TraceSegmentReader Reader(Path);
    if (!Reader.ok()) {
      std::fprintf(stderr, "error: cannot stream '%s': %s\n", Path.c_str(),
                   Reader.report().Error.c_str());
      return 1;
    }
    WindowedOptions WO;
    WO.Engine = UseZ3 ? smt::SolverEngine::Z3 : smt::SolverEngine::Idl;
    WO.WindowSpans = WindowSpans;
    WindowedScheduleBuilder Builder(WO);

    RecordingLog Log;
    while (Reader.next(Log) && Builder.addSpans(Log))
      ;
    Reader.finish(Log);
    Builder.addSpans(Log);
    if (!Builder.finish()) {
      if (Builder.tooSmall().fired() && Attempt < MaxWindowRetries) {
        obs::Registry::global().counter("stream.window_retries").add(1);
        std::printf("window of %zu spans too small (%s); retrying with "
                    "%zu\n",
                    WindowSpans, Builder.error().c_str(), WindowSpans * 2);
        WindowSpans *= 2;
        continue;
      }
      std::fprintf(stderr, "error: %s\n", Builder.error().c_str());
      if (Builder.tooSmall().fired())
        std::fprintf(stderr,
                     "hint: a dependence outlived %u doublings of the "
                     "window; pass a larger --window-spans explicitly\n",
                     MaxWindowRetries);
      return 1;
    }
    printLoadReport(Reader.report());
    std::printf("streamed %zu window(s): solved %llu-turn schedule in "
                "%.2f ms (%llu of %llu noninterference pairs decided before "
                "search)%s\n",
                Builder.windowsSolved(),
                static_cast<unsigned long long>(Builder.orderSize()),
                Builder.stats().SolveSeconds * 1000,
                static_cast<unsigned long long>(Builder.pairStats().Decided),
                static_cast<unsigned long long>(Builder.pairStats().Pairs),
                Attempt ? " (after window retries)" : "");
    ReplaySchedule Plan = Builder.takeSchedule(Log);
    return replayWithPlan(Prog, Log, Plan, nullptr,
                          /*Validate=*/Reader.report().CleanClose);
  }
}

/// Writes the telemetry outputs requested on the command line. Runs on
/// every exit path so a failed replay still leaves its trace behind.
int finishTelemetry(int Rc, const std::string &MetricsPath,
                    const std::string &TracePath) {
  if (!TracePath.empty()) {
    obs::Tracer::global().stop();
    if (obs::Tracer::global().writeChromeTrace(TracePath))
      std::printf("trace written -> %s (%zu events, %llu dropped)\n",
                  TracePath.c_str(), obs::Tracer::global().size(),
                  static_cast<unsigned long long>(
                      obs::Tracer::global().dropped()));
    else
      std::fprintf(stderr, "error: cannot write trace '%s'\n",
                   TracePath.c_str());
  }
  if (!MetricsPath.empty()) {
    if (obs::Registry::global().writeJson(MetricsPath))
      std::printf("metrics written -> %s\n", MetricsPath.c_str());
    else
      std::fprintf(stderr, "error: cannot write metrics '%s'\n",
                   MetricsPath.c_str());
  }
  return Rc;
}

/// Epoch options parsed from the command line.
struct EpochFlags {
  size_t Spans = 0;
  uint64_t Ms = 0;
  bool on() const { return Spans != 0 || Ms != 0; }
};

/// The child half of `crashtest`: records <Prog> under <Seed> with the
/// durable epoch log at <DurablePath>, then dies at the bug via
/// crashFlush() — close pending spans, append one final segment, no
/// clean-close marker — and exits without ever calling finish(). Exit
/// codes: 42 = crashed at the bug as intended, 3 = the run unexpectedly
/// completed cleanly.
[[noreturn]] void crashtestChild(const mir::Program &Prog, uint64_t Seed,
                                 const std::string &DurablePath,
                                 const EpochFlags &Epochs) {
  LightOptions Opts;
  Opts.EpochSpans = Epochs.Spans ? Epochs.Spans : 4;
  Opts.EpochMs = Epochs.Ms;
  Opts.DurableLogPath = DurablePath;
  LightRecorder Rec(Opts);
  Machine M(Prog, Rec);
  Rec.attachRegistry(&M.registry());
  M.seedEnvironment(Seed ^ 0x5a5a);
  RandomScheduler Sched(Seed);
  RunResult R = M.run(Sched);
  if (R.Completed)
    ::_exit(3);
  Rec.crashFlush();
  // _exit, not exit: no atexit handlers, no stream flushing — the closest
  // a cooperative test can get to dying abruptly.
  ::_exit(42);
}

/// `crashtest`: fork a recording child that crashes at the bug, salvage
/// its durable log, and verify the replay. Returns the process exit code.
int runCrashtest(const mir::Program &Prog, uint64_t Seed,
                 const std::string &DurablePath, const EpochFlags &Epochs,
                 bool UseZ3) {
  // The reference outcome: the same seed under a plain run (recording does
  // not perturb the cooperative schedule, so this is the bug the salvaged
  // log must reproduce).
  NullHook Null;
  Machine Ref(Prog, Null);
  Ref.seedEnvironment(Seed ^ 0x5a5a);
  RandomScheduler RefSched(Seed);
  RunResult Expected = Ref.run(RefSched);
  if (Expected.Completed) {
    std::fprintf(stderr,
                 "error: seed %llu does not fail; pick a buggy seed "
                 "(try `light-replay hunt`)\n",
                 static_cast<unsigned long long>(Seed));
    return 1;
  }
  std::printf("expected bug: %s\n", Expected.Bug.str().c_str());

  std::remove(DurablePath.c_str());
  pid_t Pid = ::fork();
  if (Pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (Pid == 0)
    crashtestChild(Prog, Seed, DurablePath, Epochs);

  int Status = 0;
  if (::waitpid(Pid, &Status, 0) != Pid) {
    std::perror("waitpid");
    return 1;
  }
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 42) {
    std::fprintf(stderr,
                 "error: recording child did not crash at the bug "
                 "(status %d)\n",
                 Status);
    return 1;
  }
  std::printf("recording child crashed mid-run (as intended)\n");

  RecordingLog Log;
  LogLoadReport Report;
  if (!Log.load(DurablePath, Report)) {
    std::fprintf(stderr, "error: salvage failed: %s\n",
                 Report.Error.c_str());
    return 1;
  }
  printLoadReport(Report);
  if (Report.CleanClose) {
    std::fprintf(stderr, "error: crashed child left a cleanly-closed log "
                         "(crash path wrote the close marker?)\n");
    return 1;
  }
  std::printf("salvaged %zu spans, %zu syscalls, %zu spawns\n",
              Log.Spans.size(), Log.Syscalls.size(), Log.Spawns.size());

  // With an injected mid-epoch write crash the tail epochs (and the bug)
  // are genuinely lost, along with any spans still open at the kill; the
  // guarantee shrinks to: the salvaged prefix solves and replays
  // best-effort without structural divergence, so validation is off.
  // Without it, crashFlush persisted everything up to the bug, so the
  // bug itself must reproduce under full validation.
  bool TailLost = fault::Injector::global().armed("log.crash_at_epoch");
  int Rc = solveAndReplay(Prog, Log, UseZ3,
                          TailLost ? nullptr : &Expected.Bug,
                          /*Validate=*/!TailLost);
  if (Rc == 0)
    std::printf("CRASHTEST PASS: %s\n",
                TailLost ? "torn log salvaged and prefix replayed"
                         : "salvaged log reproduced the bug");
  else
    std::printf("CRASHTEST FAIL\n");
  return Rc;
}

/// `record --nodes N`: the fault-tolerant multi-node pipeline. Forks N
/// node processes over a shared pipe fabric (each with its own durable
/// epoch + message log), salvages every node log independently, computes
/// the maximal causal cut, merges and solves one global schedule with
/// send->recv cross-node edges, then verifies each node's projected
/// replay in isolation against its redelivered messages. Returns 0 when
/// the pipeline produced a full global schedule or a structured partial
/// cut whose surviving prefixes all replayed without divergence.
int runDistPipeline(const mir::Program &Prog, uint32_t Nodes, uint64_t Seed,
                    const std::string &LogBase, const EpochFlags &Epochs,
                    bool Verify, bool UseZ3) {
  dist::DistOptions DO;
  DO.Nodes = Nodes;
  DO.Seed = Seed;
  DO.LogBase = LogBase;
  DO.EpochSpans = Epochs.Spans ? Epochs.Spans : 4;
  DO.EpochMs = Epochs.Ms;
  dist::DistRecordResult DR = dist::runDistRecord(Prog, DO);
  if (!DR.Error.empty()) {
    std::fprintf(stderr, "error: %s\n", DR.Error.c_str());
    return 1;
  }
  for (uint32_t N = 0; N < Nodes; ++N)
    std::printf("node %u: %s\n", N, DR.Nodes[N].str().c_str());

  dist::NodeSetLoader Loader;
  dist::MergeResult MR = Loader.load(LogBase, Nodes);
  if (!MR.Loaded) {
    // Still a structured outcome — every node's evidence was unusable —
    // but there is nothing to solve or replay.
    std::printf("SALVAGE EMPTY: %s\n", MR.Error.c_str());
    return 1;
  }
  for (const dist::PartialCutEntry &E : MR.Cut)
    std::printf("  cut: %s\n", E.str().c_str());
  std::printf("merged %zu span(s), %zu syscall(s) across %u node(s)%s\n",
              MR.Merged.Spans.size(), MR.Merged.Syscalls.size(), Nodes,
              MR.FullSchedule ? "" : " [PARTIAL CUT]");
  if (!Verify)
    return 0;

  if (!Loader.solve(MR,
                    UseZ3 ? smt::SolverEngine::Z3 : smt::SolverEngine::Idl)) {
    std::fprintf(stderr, "error: global solve: %s\n", MR.Error.c_str());
    return 1;
  }
  std::printf("solved %zu-turn global schedule (%llu cross-node edges, "
              "%.2f ms)\n",
              MR.Order.size(),
              static_cast<unsigned long long>(MR.CrossEdges),
              MR.Stats.SolveSeconds * 1000);

  int Rc = 0;
  for (uint32_t N = 0; N < Nodes; ++N) {
    const dist::NodeSalvage &NS = MR.Nodes[N];
    if (!NS.Epoch.Loaded || !NS.Epoch.UsablePrefix) {
      std::printf("node %u: nothing to replay (no usable salvage)\n", N);
      continue;
    }
    mir::Program NodeProg;
    std::string Err;
    if (!dist::makeNodeProgram(Prog, N, NodeProg, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    dist::NodeReplayPlan NP = Loader.projectNode(MR, N);
    if (!NP.Plan.ok()) {
      std::printf("node %u PLAN FAILED: %s\n", N, NP.Plan.error().c_str());
      Rc = 1;
      continue;
    }
    ReplayChannelTransport Redelivery(NP.Messages);
    ReplayDirector Director(NP.Plan, /*RealThreads=*/false, NP.Validate);
    Machine M(NodeProg, Director);
    M.prepareReplay(NP.Log.Spawns);
    M.setChannelTransport(&Redelivery, N);
    RunResult R = M.runReplay(Director);
    if (Director.failed()) {
      std::printf("node %u REPLAY DIVERGED: %s\n", N,
                  Director.divergenceInfo().str().c_str());
      Rc = 1;
      continue;
    }
    if (R.Bug.What == BugReport::Kind::ReplayDivergence) {
      std::printf("node %u REPLAY DIVERGED: %s\n", N, R.Bug.str().c_str());
      Rc = 1;
      continue;
    }
    std::printf("node %u replay %s: %s\n", N,
                NP.Validate ? "faithful" : "best-effort (cut prefix)",
                R.Completed ? "completed" : R.Bug.str().c_str());
  }
  if (Rc == 0)
    std::printf("DIST %s: %s\n",
                MR.FullSchedule ? "FULL SCHEDULE" : "PARTIAL CUT",
                MR.FullSchedule
                    ? "global schedule solved and every node replayed"
                    : "surviving prefixes solved and replayed");
  return Rc;
}

/// `explore`: systematic / randomized schedule search, optional oracle
/// cross-check and ddmin shrinking of the failure found.
int runExplore(const mir::Program &Prog, const std::string &Strategy,
               const explore::ExploreOptions &Opts, bool RunOracle,
               bool Shrink, const std::string &ReproPath, bool UseZ3) {
  using namespace light::explore;

  if (Strategy != "pct" && Strategy != "dfs") {
    std::fprintf(stderr, "error: --explore wants 'pct' or 'dfs', got '%s'\n",
                 Strategy.c_str());
    return 2;
  }
  ExploreReport Report = Strategy == "dfs" ? exploreDfs(Prog, Opts)
                                           : explorePct(Prog, Opts);
  std::printf("%s: %llu schedule(s), %llu distinct interleaving(s), "
              "%.2fs (%.0f schedules/s)%s\n",
              Strategy.c_str(),
              static_cast<unsigned long long>(Report.SchedulesRun),
              static_cast<unsigned long long>(Report.DistinctInterleavings),
              Report.Seconds, Report.schedulesPerSecond(),
              Report.SpaceExhausted ? ", space exhausted" : "");
  if (Report.BugFound) {
    std::printf("bug found: %s\n", Report.Bug.str().c_str());
    std::printf("  preemptions: %u\n", Report.FailingPreemptions);
    std::printf("  schedule: %s\n",
                traceToString(Report.FailingTrace).c_str());
  } else {
    std::printf("no bug within the budget\n");
  }

  int Rc = Report.BugFound ? 0 : 1;
  DecisionTrace Schedule = Report.FailingTrace; // empty = default schedule

  if (RunOracle) {
    OracleConfig Config;
    Config.LightEngine =
        UseZ3 ? smt::SolverEngine::Z3 : smt::SolverEngine::Idl;
    Config.EnvSeed = Opts.EnvSeed;
    CrossEngineOracle Oracle(Config);
    OracleVerdict V = Oracle.check(Prog, Schedule);
    std::printf("oracle: %s\n", V.str().c_str());
    if (!V.Agreed)
      Rc = 1;
  }

  if (Shrink && Report.BugFound) {
    BugReport Want = Report.Bug;
    uint64_t EnvSeed = Opts.EnvSeed;
    FailPredicate SameBug = [&](const mir::Program &P,
                                const DecisionTrace &S) {
      NullHook Null;
      Machine M(P, Null);
      M.seedEnvironment(EnvSeed ^ 0x5a5a);
      TraceScheduler Sched(S);
      RunResult R = M.run(Sched, /*MaxInstructions=*/2000000ull);
      return Want.sameAs(R.Bug);
    };
    ShrinkResult Small = shrink(Prog, Schedule, SameBug);
    std::printf("shrink: %u -> %u statements (%.0f%%), %llu probes\n",
                Small.OriginalStatements, Small.ShrunkStatements,
                Small.ratio() * 100,
                static_cast<unsigned long long>(Small.ProbesRun));
    Repro R;
    R.Prog = Small.Shrunk;
    R.Schedule = Small.Schedule;
    R.EnvSeed = EnvSeed;
    R.Note = "bug: " + Want.str();
    std::string Err = dumpRepro(ReproPath, R);
    if (!Err.empty()) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::printf("repro written -> %s\n", ReproPath.c_str());
  } else if (Shrink) {
    std::printf("nothing to shrink (no failing schedule)\n");
  }
  return Rc;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  std::string Cmd = argv[1];
  if (Cmd.size() >= 2 && Cmd[0] == '-' && Cmd[1] == '-') {
    std::fprintf(stderr,
                 "error: expected a command before '%s' (flags go after "
                 "the command)\n",
                 Cmd.c_str());
    return usage();
  }

  obs::ArgList Args(
      argc, argv,
      {"metrics-json", "trace-out", "epoch-spans", "epoch-ms", "fault",
       "window-spans", "nodes", "explore", "preemption-bound", "pct-depth", "seeds", "budget", "repro-out", "progress", "ci-json",
       "ci-artifacts", "ci-deadline", "ci-retries", "ci-seed",
       "ci-explore-budget"},
      {"z3", "no-verify", "stream", "oracle", "shrink",
       "ci-calibration"},
      /*Begin=*/2);
  for (const std::string &F : Args.unknown())
    std::fprintf(stderr, "error: unknown flag '%s'\n", F.c_str());
  if (!Args.unknown().empty())
    return usage();

  // A valueless flag falls back to a conventional filename rather than
  // silently dropping the request.
  std::string MetricsPath = Args.get("metrics-json", "", "metrics.json");
  std::string TracePath = Args.get("trace-out", "", "trace.json");
  bool UseZ3 = Args.has("z3");
  EpochFlags Epochs;
  Epochs.Spans = std::strtoull(Args.get("epoch-spans", "0").c_str(),
                               nullptr, 10);
  Epochs.Ms = std::strtoull(Args.get("epoch-ms", "0").c_str(), nullptr, 10);
  if (Args.has("fault")) {
    // The flag overrides any LIGHT_FAULT environment spec.
    std::string Err = fault::Injector::global().configure(Args.get("fault"));
    if (!Err.empty()) {
      std::fprintf(stderr, "error: --fault: %s\n", Err.c_str());
      return 2;
    }
  }
  if (!TracePath.empty())
    obs::Tracer::global().start();

  // Heartbeat: --progress[=seconds] starts the sampler before any work.
  // It also rewrites --metrics-json every tick, so a crashed/killed run
  // still leaves an at-most-one-heartbeat-stale snapshot on disk.
  std::unique_ptr<obs::ProgressSampler> Progress;
  if (Args.has("progress")) {
    obs::ProgressOptions PO;
    PO.Label = Cmd;
    PO.MetricsJsonPath = MetricsPath;
    std::string Interval = Args.get("progress", "1", "1");
    PO.IntervalSeconds = std::strtod(Interval.c_str(), nullptr);
    if (PO.IntervalSeconds <= 0) {
      std::fprintf(stderr, "error: --progress wants a positive interval, "
                           "got '%s'\n",
                   Interval.c_str());
      return 2;
    }
    Progress = std::make_unique<obs::ProgressSampler>(PO);
    Progress->start();
  }

  auto Finish = [&](int Rc) {
    if (Progress)
      Progress->stop(); // final heartbeat + last metrics flush
    return finishTelemetry(Rc, MetricsPath, TracePath);
  };

  if (Cmd == "list") {
    for (const BugBenchmark &B : makeBugSuite())
      std::printf("%-16s clap=%s chimera=%s\n", B.Name.c_str(),
                  B.ClapExpected ? "yes" : "no",
                  B.ChimeraExpected ? "yes" : "no");
    for (const BugBenchmark &B : makeSyncBugSuite())
      std::printf("%-16s clap=%s chimera=%s\n", B.Name.c_str(),
                  B.ClapExpected ? "yes" : "no",
                  B.ChimeraExpected ? "yes" : "no");
    for (const BugBenchmark &B : makeDistBugSuite())
      std::printf("%-16s clap=%s chimera=%s\n", B.Name.c_str(),
                  B.ClapExpected ? "yes" : "no",
                  B.ChimeraExpected ? "yes" : "no");
    return Finish(0);
  }

  if (Args.size() < 1)
    return usage();
  const std::string &Target = Args.positional(0);

  if (Cmd == "show") {
    RecordingLog Log;
    LogLoadReport Report;
    if (!Log.load(Target, Report)) {
      std::fprintf(stderr, "error: cannot load '%s': %s\n", Target.c_str(),
                   Report.Error.c_str());
      return Finish(1);
    }
    printLoadReport(Report);
    std::printf("%s", Log.str().c_str());
    return Finish(0);
  }

  if (Cmd == "ci") {
    // The resilient corpus pipeline: the target is a corpus directory (its
    // *.mir files, sorted) or an explicit list of program files.
    ci::CiOptions CO;
    CO.DeadlineSeconds =
        std::strtod(Args.get("ci-deadline", "5").c_str(), nullptr);
    if (CO.DeadlineSeconds <= 0) {
      std::fprintf(stderr, "error: --ci-deadline wants a positive number "
                           "of seconds\n");
      return Finish(2);
    }
    CO.MaxInfraRetries = static_cast<uint32_t>(
        std::strtoul(Args.get("ci-retries", "2").c_str(), nullptr, 10));
    CO.RecordSeed =
        std::strtoull(Args.get("ci-seed", "1").c_str(), nullptr, 10);
    CO.ExploreBudgetSeconds =
        std::strtod(Args.get("ci-explore-budget", "2").c_str(), nullptr);
    CO.Strategy = Args.get("explore", "pct", "pct");
    CO.Explore.PreemptionBound = static_cast<uint32_t>(
        std::strtoul(Args.get("preemption-bound", "2").c_str(), nullptr, 10));
    CO.Explore.PctDepth = static_cast<uint32_t>(
        std::strtoul(Args.get("pct-depth", "3").c_str(), nullptr, 10));
    CO.Explore.PctSeeds =
        std::strtoull(Args.get("seeds", "1000").c_str(), nullptr, 10);
    CO.Explore.ScheduleBudget =
        std::strtoull(Args.get("budget", "50000").c_str(), nullptr, 10);
    CO.ArtifactDir = Args.get("ci-artifacts", "", "");
    CO.Calibrate = Args.has("ci-calibration");
    if (Epochs.Spans)
      CO.EpochSpans = Epochs.Spans;

    std::vector<std::string> Paths;
    struct stat St;
    if (::stat(Target.c_str(), &St) == 0 && S_ISDIR(St.st_mode)) {
      std::string Err;
      if (!ci::listCorpusDir(Target, Paths, Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return Finish(1);
      }
      if (Paths.empty()) {
        std::fprintf(stderr, "error: no .mir files in '%s'\n",
                     Target.c_str());
        return Finish(1);
      }
    } else {
      for (size_t I = 0; I < Args.size(); ++I)
        Paths.push_back(Args.positional(I));
    }

    ci::CorpusSummary Summary = ci::runCorpusCi(Paths, CO);
    for (const ci::ProgramVerdict &PV : Summary.Programs)
      std::printf("%-20s %-16s %s\n", PV.Name.c_str(),
                  ci::verdictName(PV.What), PV.Why.c_str());
    std::printf("ci: %zu program(s): %llu pass, %llu flaky, %llu "
                "reproduced, %llu salvaged-partial, %llu infra-error "
                "(%.2fs)\n",
                Summary.Programs.size(),
                static_cast<unsigned long long>(
                    Summary.count(ci::Verdict::Pass)),
                static_cast<unsigned long long>(
                    Summary.count(ci::Verdict::Flaky)),
                static_cast<unsigned long long>(
                    Summary.count(ci::Verdict::Reproduced)),
                static_cast<unsigned long long>(
                    Summary.count(ci::Verdict::SalvagedPartial)),
                static_cast<unsigned long long>(
                    Summary.count(ci::Verdict::InfraError)),
                Summary.Seconds);

    std::string Json = ci::ciSummaryToJson(Summary);
    std::string JsonPath = Args.get("ci-json", "", "ci.json");
    if (!JsonPath.empty()) {
      std::ofstream Out(JsonPath, std::ios::trunc);
      Out << Json;
      if (!Out) {
        std::fprintf(stderr, "error: cannot write '%s'\n", JsonPath.c_str());
        return Finish(1);
      }
      std::printf("ci summary -> %s\n", JsonPath.c_str());
    }
    // Self-check: the emitted document must satisfy its own validator.
    std::string Invalid = ci::validateCiSummaryJson(Json);
    if (!Invalid.empty()) {
      std::fprintf(stderr, "error: emitted ci summary fails validation: %s\n",
                   Invalid.c_str());
      return Finish(1);
    }
    return Finish(Summary.clean() ? 0 : 1);
  }

  std::optional<mir::Program> Prog = loadProgram(Target);
  if (!Prog)
    return Finish(1);

  if (Cmd == "print") {
    std::printf("%s", Prog->str().c_str());
    return Finish(0);
  }

  if (Cmd == "run") {
    uint64_t Seed = std::strtoull(Args.positionalOr(1, "1").c_str(),
                                  nullptr, 10);
    NullHook Null;
    Machine M(*Prog, Null);
    M.seedEnvironment(Seed ^ 0x5a5a);
    RandomScheduler Sched(Seed);
    printOutcome(M.run(Sched));
    return Finish(0);
  }

  if (Cmd == "hunt") {
    uint64_t Max = std::strtoull(Args.positionalOr(1, "300").c_str(),
                                 nullptr, 10);
    BugReport Bug;
    std::optional<uint64_t> Seed = findBuggySeed(*Prog, Max, &Bug);
    if (!Seed) {
      std::printf("no failing schedule in %llu seeds\n",
                  static_cast<unsigned long long>(Max));
      return Finish(1);
    }
    std::printf("seed %llu fails: %s\n",
                static_cast<unsigned long long>(*Seed), Bug.str().c_str());
    return Finish(0);
  }

  if (Cmd == "record") {
    uint64_t Seed = std::strtoull(Args.positionalOr(1, "1").c_str(),
                                  nullptr, 10);
    std::string LogPath = Args.positionalOr(2, Target + ".lightlog");
    if (Args.has("nodes")) {
      uint32_t Nodes = static_cast<uint32_t>(
          std::strtoul(Args.get("nodes", "2", "2").c_str(), nullptr, 10));
      if (Nodes == 0 || Nodes > dist::MaxNodes) {
        std::fprintf(stderr, "error: --nodes wants a count in [1, %u]\n",
                     dist::MaxNodes);
        return Finish(2);
      }
      return Finish(runDistPipeline(*Prog, Nodes, Seed, LogPath, Epochs,
                                    !Args.has("no-verify"), UseZ3));
    }
    LightOptions Opts;
    if (Epochs.on()) {
      // Durable-epoch mode: the on-disk artifact is the incrementally
      // written LIGHT003 log itself (crash-recoverable at every epoch
      // boundary), not a finish()-time save.
      Opts.EpochSpans = Epochs.Spans;
      Opts.EpochMs = Epochs.Ms;
      Opts.DurableLogPath = LogPath;
    }
    LightRecorder Rec(Opts);
    Machine M(*Prog, Rec);
    Rec.attachRegistry(&M.registry());
    M.seedEnvironment(Seed ^ 0x5a5a);
    RandomScheduler Sched(Seed);
    RunResult R = M.run(Sched);
    RecordingLog Log = Rec.finish(&M.registry());
    printOutcome(R);
    if (Epochs.on()) {
      const DurableLogWriter *DL = Rec.durableLog();
      if (!DL || !DL->ok()) {
        std::fprintf(stderr, "error: durable log not written: %s\n",
                     DL && !DL->error().empty() ? DL->error().c_str()
                                                : "no epoch was flushed");
        return Finish(1);
      }
      if (DL->crashed())
        std::printf("note: injected crash tore the durable log; the on-disk "
                    "prefix is salvageable with `replay`\n");
      if (Rec.overflowed()) {
        std::fprintf(stderr, "error: recording overflowed: %s\n",
                     Rec.overflowError().c_str());
        return Finish(1);
      }
      std::printf("recorded %zu spans (durable LIGHT003, %llu segments, "
                  "%llu long-integers on disk) -> %s\n",
                  Log.Spans.size(),
                  static_cast<unsigned long long>(
                      DL ? DL->segmentsWritten() : 0),
                  static_cast<unsigned long long>(DL ? DL->wordsWritten()
                                                     : 0),
                  LogPath.c_str());
    } else {
      uint64_t Words = Log.saveCompact(LogPath);
      if (!Words) {
        std::fprintf(stderr,
                     "error: log not written to '%s' (I/O failure, or a "
                     "record exceeded a wire width)\n",
                     LogPath.c_str());
        return Finish(1);
      }
      std::printf("recorded %zu spans (LIGHT003, %llu long-integers on disk) "
                  "-> %s\n",
                  Log.Spans.size(), static_cast<unsigned long long>(Words),
                  LogPath.c_str());
    }
    if (Args.has("no-verify"))
      return Finish(0);
    // Default verification pass: solve the schedule and re-execute it under
    // validation, so the one command exercises record + solve + replay (and
    // the telemetry outputs cover all three layers).
    return Finish(solveAndReplay(*Prog, Log, UseZ3));
  }

  if (Cmd == "replay") {
    if (Args.size() < 2)
      return usage();
    if (Args.has("stream")) {
      size_t WindowSpans = std::strtoull(
          Args.get("window-spans", "32768").c_str(), nullptr, 10);
      if (WindowSpans == 0) {
        std::fprintf(stderr,
                     "error: --window-spans wants a positive span count\n");
        return Finish(2);
      }
      return Finish(streamedSolveAndReplay(*Prog, Args.positional(1), UseZ3,
                                           WindowSpans));
    }
    RecordingLog Log;
    LogLoadReport Report;
    if (!Log.load(Args.positional(1), Report)) {
      std::fprintf(stderr, "error: cannot load '%s': %s\n",
                   Args.positional(1).c_str(), Report.Error.c_str());
      return Finish(1);
    }
    printLoadReport(Report);
    return Finish(solveAndReplay(*Prog, Log, UseZ3));
  }

  if (Cmd == "explore") {
    explore::ExploreOptions Opts;
    Opts.PreemptionBound = static_cast<uint32_t>(
        std::strtoul(Args.get("preemption-bound", "2").c_str(), nullptr, 10));
    Opts.PctDepth = static_cast<uint32_t>(
        std::strtoul(Args.get("pct-depth", "3").c_str(), nullptr, 10));
    Opts.PctSeeds =
        std::strtoull(Args.get("seeds", "1000").c_str(), nullptr, 10);
    Opts.ScheduleBudget =
        std::strtoull(Args.get("budget", "50000").c_str(), nullptr, 10);
    return Finish(runExplore(
        *Prog, Args.get("explore", "pct", "pct"), Opts, Args.has("oracle"),
        Args.has("shrink"),
        Args.get("repro-out", Target + ".repro.mir", Target + ".repro.mir"),
        UseZ3));
  }

  if (Cmd == "crashtest") {
    uint64_t Seed;
    if (Args.size() >= 2) {
      Seed = std::strtoull(Args.positional(1).c_str(), nullptr, 10);
    } else {
      // No seed given: hunt one deterministically.
      std::optional<uint64_t> Found = findBuggySeed(*Prog, 300);
      if (!Found) {
        std::fprintf(stderr,
                     "error: no failing schedule in 300 seeds; pass an "
                     "explicit seed\n");
        return Finish(1);
      }
      Seed = *Found;
      std::printf("hunted failing seed %llu\n",
                  static_cast<unsigned long long>(Seed));
    }
    std::string DurablePath =
        Args.positionalOr(2, makeTempPath("crashtest"));
    return Finish(runCrashtest(*Prog, Seed, DurablePath, Epochs, UseZ3));
  }

  return usage();
}
