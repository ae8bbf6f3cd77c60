//===- bugs/BugHarness.h - Record/solve/replay drivers ----------*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drivers reproducing a bug benchmark with each of the three tools of
/// Section 5.3 — Light, Clap, Chimera — plus the schedule search that finds
/// a failing interleaving in the first place. Used by the Figure 6 matrix
/// bench, the Table 1 bench, and the bug-suite tests.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_BUGS_BUGHARNESS_H
#define LIGHT_BUGS_BUGHARNESS_H

#include "bugs/BugPrograms.h"
#include "core/LightOptions.h"
#include "interp/Machine.h"
#include "smt/Z3Backend.h"

#include <optional>
#include <string>

namespace light {
namespace bugs {

/// Outcome of one tool's reproduction attempt.
struct ToolAttempt {
  /// Did the bug manifest at all during the (possibly patched) recording?
  bool BugFound = false;
  /// Did the replay reproduce the correlated failure (Definition 3.3)?
  bool Reproduced = false;
  std::string Note;

  uint64_t Seed = 0;
  double RecordSeconds = 0;
  double SolveSeconds = 0;
  double ReplaySeconds = 0;
  uint64_t SpaceLongs = 0;

  /// Solver statistics of the schedule solve (Values cleared; only the
  /// counts and timing are kept). Zero for tools that do not solve a
  /// constraint system. Report these via smt::solveStatEntries so every
  /// bench uses the same metric names.
  smt::SolveResult SolverStats;
};

/// Searches seeds [1, MaxSeeds] for a schedule where \p Prog fails with an
/// application bug (not a runtime anomaly). Returns the seed, and the
/// report via \p Out when non-null.
std::optional<uint64_t> findBuggySeed(const mir::Program &Prog,
                                      uint64_t MaxSeeds,
                                      BugReport *Out = nullptr);

/// Record with Light (options + engine), solve, replay with validation.
ToolAttempt lightReproduce(const BugBenchmark &Bench, uint64_t Seed,
                           LightOptions Opts = LightOptions(),
                           smt::SolverEngine Engine = smt::SolverEngine::Idl);

/// Record branch traces, run the symbolic analysis, replay if supported.
ToolAttempt clapReproduce(const BugBenchmark &Bench, uint64_t Seed);

/// Patch, search up to \p MaxSeeds for a failing schedule of the patched
/// program, record lock order, replay. BugFound == false means the patch
/// hid the bug (the paper's Chimera misses).
ToolAttempt chimeraReproduce(const BugBenchmark &Bench,
                             uint64_t MaxSeeds = 60);

} // namespace bugs
} // namespace light

#endif // LIGHT_BUGS_BUGHARNESS_H
