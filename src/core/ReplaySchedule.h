//===- core/ReplaySchedule.h - Solved replay schedules ----------*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The product of the offline replay phase: a total order over all recorded
/// (gated) accesses computed by the solver, plus the side information the
/// replay director needs to classify the accesses the recording *didn't*
/// log:
///
///  * span-interior accesses (compressed away by prec / O1) run freely
///    between their gated span endpoints,
///  * accesses to O2-guarded locations run freely under their locks,
///  * blind writes — writes in no dependence and no span — are suppressed
///    (Section 4.2: "Light adopts the simple solution of avoiding execution
///    of blind writes"),
///  * recorded syscall values are substituted (Section 3.2).
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_CORE_REPLAYSCHEDULE_H
#define LIGHT_CORE_REPLAYSCHEDULE_H

#include "core/ConstraintGen.h"
#include "smt/Z3Backend.h"
#include "trace/RecordingLog.h"

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace light {

/// How the replay director should treat one dynamic access.
enum class AccessClass : uint8_t {
  Gated,    ///< in the solved order; must wait for its turn
  Interior, ///< inside a recorded span; runs freely
  Guarded,  ///< O2 location; lock order subsumes it
  Blind,    ///< unrecorded write; suppressed
  Unknown,  ///< unrecorded read; only legal for guarded/unshared data
  /// Past the thread's recorded horizon: the original run stopped (at the
  /// bug) before the thread got this far, so the access is outside the
  /// guarantee and runs unvalidated.
  BeyondHorizon,
};

/// A solved, executable replay schedule.
class ReplaySchedule {
public:
  /// Builds the constraint system for \p Log (buildScheduleProblem),
  /// solves it with \p Engine under \p Limits (falling back to the other
  /// engine once on timeout/error, see smt::solveOrder), and assembles the
  /// schedule from the model's order (fromSolvedOrder). Fails (ok() ==
  /// false) if the system is unsatisfiable — which Lemma 4.1 rules out for
  /// well-formed logs — or if both solver engines gave up; solveStats()
  /// distinguishes the two.
  static ReplaySchedule build(const RecordingLog &Log,
                              smt::SolverEngine Engine = smt::SolverEngine::Idl,
                              smt::SolverLimits Limits = {});

  /// Assembles a schedule from a solved total order: build()'s own last
  /// step, and the entry point of the windowed path (core/WindowedSchedule.h),
  /// which solves epoch windows one at a time and concatenates the
  /// fragments, and of the multi-node merge (dist/NodeSet.h). Skips
  /// constraint generation and solving; \p Order is trusted to satisfy the
  /// monolithic system. \p Stats carries the solver statistics for
  /// reporting.
  static ReplaySchedule fromSolvedOrder(const RecordingLog &Log,
                                        std::vector<AccessId> Order,
                                        smt::SolveResult Stats = {});

  bool ok() const { return Satisfiable; }
  const std::string &error() const { return Error; }

  /// The solved total order of gated accesses.
  const std::vector<AccessId> &order() const { return Order; }

  /// Solver statistics of the build.
  const smt::SolveResult &solveStats() const { return Stats; }

  /// What constraint generation settled before search (build() only).
  const PairStats &pairStats() const { return Pairs; }

  /// Classifies a dynamic access during replay. For Gated, \p TurnOut gets
  /// the access's position in order(). For reads, \p ExpectedSrcOut gets the
  /// packed source write the read must observe (0 = initial value,
  /// ~0ull = own-span write, unknown exact id).
  AccessClass classify(ThreadId T, LocationId L, Counter C, bool IsWrite,
                       uint32_t &TurnOut, uint64_t &ExpectedSrcOut) const;

  /// Per-thread recorded syscall values in order.
  const std::vector<std::vector<uint64_t>> &syscalls() const {
    return SyscallValues;
  }

  const std::vector<SpawnRecord> &spawns() const { return Spawns; }

  /// Sentinel for "expected source is some write of the owning span".
  static constexpr uint64_t OwnSpanSource = ~0ull;

private:
  struct SpanInfo {
    Counter First, Last;
    SpanKind Kind;
    uint64_t SrcPacked;
  };

  /// Builds TurnOf and the classification side tables from \p Log; Order
  /// must already be set.
  void assemble(const RecordingLog &Log);

  bool Satisfiable = false;
  std::string Error;
  smt::SolveResult Stats;
  PairStats Pairs;
  std::vector<AccessId> Order;
  std::unordered_map<uint64_t, uint32_t> TurnOf; ///< packed access -> index

  /// Thread -> (location -> spans sorted by First).
  std::vector<std::unordered_map<LocationId, std::vector<SpanInfo>>> Spans;
  GuardSpec Guards;
  std::vector<std::vector<uint64_t>> SyscallValues;
  std::vector<SpawnRecord> Spawns;
  std::vector<Counter> FinalCounters;
};

} // namespace light

#endif // LIGHT_CORE_REPLAYSCHEDULE_H
