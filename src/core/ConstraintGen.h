//===- core/ConstraintGen.h - Equation 1 over span intervals ----*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a RecordingLog into the replay constraint system of Section 4.2:
///
///  * one order variable O(c) per recorded access (span endpoints and
///    dependence sources),
///  * intra-thread order: O(c1) < O(c2) for same-thread accesses with
///    c1 < c2,
///  * dependence constraints O(c_w) < O(c_r),
///  * noninterference (Equation 1), generalized from single dependences to
///    the span intervals produced by the prec map and O1: two spans on the
///    same location must not overlap unless they read the same source
///    write. The rules are derived in trace/DepSpan.h and below.
///
/// Before anything is emitted, the generator decides Equation 1 against
/// the hard edges (chains, dependences, every unit rule): pairs that the
/// hard order already separates are never emitted, and a disjunction with
/// one impossible side becomes the other side as a unit, to a fixpoint.
/// The emitted system has exactly the models of the full one (DESIGN.md
/// §7). The result is pure Integer Difference Logic and is handed to
/// smt::IdlSolver or the Z3 backend.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_CORE_CONSTRAINTGEN_H
#define LIGHT_CORE_CONSTRAINTGEN_H

#include "smt/Z3Backend.h"
#include "trace/RecordingLog.h"

#include <string>
#include <unordered_map>

namespace light {

/// What the generator settled before search. Pairs counts every unordered
/// pair of spans on one location — the pairs Equation 1 ranges over;
/// Decided counts those that reach the solver without a disjunction
/// (ordered by the hard edges, constrained by a unit rule, or needing
/// nothing). Rounds counts the saturation passes over the hard edges.
struct PairStats {
  uint64_t Pairs = 0;
  uint64_t Decided = 0;
  uint32_t Rounds = 0;
};

/// A constraint system plus the access <-> variable correspondence.
struct ScheduleProblem {
  smt::OrderSystem System;
  std::vector<AccessId> VarAccess;                   ///< var -> access
  std::unordered_map<uint64_t, smt::Var> AccessVar;  ///< packed -> var

  /// Connected components of System: accesses in different components
  /// share no constraint (no common thread chain, no common location), so
  /// their sub-systems can be solved independently (smt::solveSharded).
  /// Filled by buildScheduleProblem only.
  smt::ComponentInfo Components;

  PairStats Pairs;

  /// Set when the hard edges alone close a cycle: the system is
  /// unsatisfiable, and this names every access on the cycle and why each
  /// step holds, in the recorded log's terms.
  std::string HardCycle;

  smt::Var varOf(AccessId A) const {
    auto It = AccessVar.find(A.pack());
    return It == AccessVar.end() ? ~0u : It->second;
  }

  /// The total replay order a model of System fixes: every access of
  /// VarAccess sorted by its value in \p R, ties (unconstrained pairs)
  /// broken by packed access id so the order is deterministic.
  std::vector<AccessId> orderOf(const smt::SolveResult &R) const;

  /// Solves System with smt::solveOrder (\p Engine, falling back to the
  /// other engine once on timeout/error) and, when it is satisfiable,
  /// stores orderOf(result) in \p Order. With a HardCycle the verdict is
  /// Unsat at once, carrying HardCycle as its Message.
  smt::SolveResult solve(smt::SolverEngine Engine, smt::SolverLimits Limits,
                         std::vector<AccessId> &Order) const;
};

/// One span with its order variables — the operand of the pairwise
/// noninterference rules R1-R6 (derivation in ConstraintGen.cpp).
struct SpanVarRefs {
  const DepSpan *S = nullptr;
  smt::Var Src = ~0u; ///< valid when S->Src.valid() && !SrcFrozen
  smt::Var First = 0;
  smt::Var Last = 0;

  /// Windowed builds only: the span's source write belongs to an
  /// already-frozen window, so it has a final order value *below* every
  /// variable of the current window and no Var in this system.
  bool SrcFrozen = false;

  bool readOnly() const { return S->Kind != SpanKind::Own; }
  bool hasWrites() const { return S->Kind == SpanKind::Own; }

  /// The order variable at which this span's interval begins. With a
  /// frozen source the interval start is pinned below the window; First is
  /// the nearest in-system variable.
  smt::Var startVar() const {
    return S->Src.valid() && !SrcFrozen ? Src : First;
  }
};

/// The Equation 1 generator. Each element of \p Spans names a span (S) and
/// whether its source write is frozen (SrcFrozen); the generator assigns
/// the order variables (Src, First, Last, in span order), then emits the
/// intra-thread chains, the dependence edges and the R1-R6 pair rules per
/// location, minus every pair the hard edges decide (see the file
/// comment). Components is left empty.
///
/// Frozen sources (windowed builds, core/WindowedSchedule.h): a frozen
/// source has no variable, so its dependence edge and chain hold by
/// construction; an R6 disjunct of the form O(x) < O(frozen source) can
/// never hold — frozen values lie below the whole window — so R6 drops it
/// and emits the surviving disjunct as a hard constraint, which is strictly
/// stronger than the monolithic clause and therefore sound.
ScheduleProblem generateScheduleProblem(std::vector<SpanVarRefs> &Spans);

/// Every span of \p Log, nothing frozen: the generator's input for a
/// whole log.
std::vector<SpanVarRefs> spanRefsOf(const RecordingLog &Log);

/// Builds the constraint system for \p Log: the generator over
/// spanRefsOf(Log), plus the Components metadata.
ScheduleProblem buildScheduleProblem(const RecordingLog &Log);

} // namespace light

#endif // LIGHT_CORE_CONSTRAINTGEN_H
