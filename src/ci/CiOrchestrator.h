//===- ci/CiOrchestrator.h - Resilient corpus CI pipeline -------*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The corpus-driven CI orchestrator behind `light-replay ci`: for each
/// `.mir` program it runs the resilient pipeline
///
///   record (fork sandbox) -> salvage -> explore (in-situ) -> shrink
///     -> verify
///
/// and reduces the outcome to one of five verdicts (ci/Verdict.h). The
/// design splits trust by execution count:
///
///  * First contact happens in a sandboxed child (ci/Sandbox.h): rlimits,
///    a parent watchdog deadline, and an in-child alarm(2) fallback mean a
///    crashing, spinning, or allocating program only ever costs one
///    disposable process. The child records through the durable LIGHT003
///    epoch log, so whatever kills it leaves a salvageable prefix.
///  * Every later execution — failure confirmation, schedule exploration,
///    ddmin shrinking, repro verification — runs *in-situ*, in-process,
///    under the interpreter's instruction budget (an iReplayer-style
///    re-execution fast path: no fork, no solver, just a TraceScheduler).
///    The budget makes even a spinning program terminate deterministically,
///    which is what makes in-process re-execution safe after first contact.
///
/// Failure handling is classified, not best-effort:
///
///  * infra-class failures (fork failure, child exit 50 = durable-log I/O
///    failure) are retried with bounded exponential backoff;
///  * program-class failures (bug, crash, hang, oom) are never retried —
///    they are the signal, and the pipeline degrades gracefully instead:
///    explore timeout keeps the best-so-far schedule, shrink timeout ships
///    the unshrunk repro, verify divergence downgrades the verdict to
///    salvaged-partial.
///
/// Child exit protocol (the record stage's failure-class wire format):
///   0 = clean; 40 = application bug; 41 = hang (instruction budget);
///   42 = runtime anomaly (crash-class); 50 = child-side infra failure
///   (retryable). Signals: watchdog SIGKILL = hang, SIGXCPU = hang,
///   SIGABRT under a memory ceiling = oom, anything else = crash.
///
/// Fault sites driving the failure edges deterministically (see
/// support/FaultInjection.h): ci.spawn_fail, ci.kill_child.start,
/// ci.kill_child.record, ci.kill_child.flush, ci.salvage_truncate,
/// ci.explore_timeout, ci.shrink_timeout, ci.verify_diverge,
/// ci.watchdog_fire.
///
/// A corpus program may carry a `; ci-fault: <spec>` comment directive: the
/// spec is armed inside the recording child only (replacing any inherited
/// spec there), which is how the corpus encodes "this program's recorder
/// crashes" without perturbing the parent harness.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_CI_CIORCHESTRATOR_H
#define LIGHT_CI_CIORCHESTRATOR_H

#include "ci/Verdict.h"
#include "explore/ExplorationDriver.h"

#include <string>
#include <vector>

namespace light {
namespace ci {

/// Orchestrator knobs.
struct CiOptions {
  /// Wall-clock deadline per sandboxed recording attempt; the watchdog
  /// SIGKILLs the child past it (ends within 2x this bound: the deadline
  /// itself plus signal delivery/reap slack).
  double DeadlineSeconds = 5;
  /// RLIMIT_CPU for the child (0 = none).
  uint64_t CpuSeconds = 30;
  /// RLIMIT_AS for the child (0 = none; ignored under sanitizers).
  uint64_t MemoryBytes = 0;

  /// Maximum retries for infra-class failures. Program-class failures are
  /// never retried.
  uint32_t MaxInfraRetries = 2;
  /// First backoff delay; doubles per retry.
  double BackoffInitialSeconds = 0.05;

  /// Exploration strategy: "pct" or "dfs".
  std::string Strategy = "pct";
  /// Wall budget for the in-situ schedule search per program.
  double ExploreBudgetSeconds = 2.0;
  /// Search knobs (budget, seeds, depth, preemption bound). EnvSeed,
  /// MaxInstructions, WallBudgetSeconds, and TreatHangAsBug are overridden
  /// by the orchestrator.
  explore::ExploreOptions Explore;

  /// Where durable logs and repros land. "" = a fresh temp directory.
  std::string ArtifactDir;
  /// Scheduler/environment seed for the recording run.
  uint64_t RecordSeed = 1;
  /// Interpreter budget in the recording child — deliberately huge so a
  /// spin is classified by the wall-clock watchdog, with the budget as the
  /// in-child backstop (exit 41).
  uint64_t ChildInstructionBudget = 400000000ull;
  /// Interpreter budget for in-situ re-executions; exhausting it IS the
  /// in-situ definition of a hang.
  uint64_t InsituInstructionBudget = 200000;
  /// Durable epoch log flush threshold (spans per thread).
  size_t EpochSpans = 4;

  /// Measure fork-vs-in-situ schedule throughput and report it per
  /// program (the `calibration` JSON object).
  bool Calibrate = false;
  uint64_t CalibrationForkRuns = 12;
  uint64_t CalibrationInsituSchedules = 150;
};

/// Runs the full pipeline on one corpus program file.
ProgramVerdict runProgramCi(const std::string &Path, const CiOptions &Opts);

/// Runs the pipeline over every path in \p Paths and aggregates.
CorpusSummary runCorpusCi(const std::vector<std::string> &Paths,
                          const CiOptions &Opts);

/// Lists the `.mir` files directly inside \p Dir, sorted by name. Returns
/// false (and sets \p Error) when the directory cannot be read.
bool listCorpusDir(const std::string &Dir, std::vector<std::string> &Out,
                   std::string &Error);

} // namespace ci
} // namespace light

#endif // LIGHT_CI_CIORCHESTRATOR_H
