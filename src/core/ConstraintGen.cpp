//===- core/ConstraintGen.cpp - Equation 1 over span intervals ------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
//
// Pairwise noninterference rules (per location, unordered span pair A, B):
//
//  R1. Both read-only (Read/Init) with the same source: compatible — reads
//      of one write may interleave freely. No constraint.
//  R2. Same source, exactly one side contains writes (a ReadSpan of w vs an
//      RMW-headed OwnSpan reading w): the reads must complete before the
//      overwrite. Hard: O(reader.Last) < O(writer.First).
//  R3. A span whose source write lies *inside* an OwnSpan of the writing
//      thread (a foreign read of the span's final write):
//        - read-only consumer: compatible (the own span's tail after the
//          source contains only reads of that same write). No constraint.
//        - write-bearing consumer: hard O(own.Last) < O(consumer.First).
//  R4. An Init span (reads of the never-written initial value) against any
//      span containing or implying a write: every write must come after the
//      init reads. Hard: O(init.Last) < O(other.Start).
//  R5. Same thread, and both spans' start vars belong to that thread: the
//      intra-thread order chain already serializes them. No constraint.
//  R6. Otherwise: interval disjointness, the span generalization of
//      Equation 1:  O(A.Last) < O(B.Start)  or  O(B.Last) < O(A.Start),
//      where Start is the source write when present, else the first access.
//
//===----------------------------------------------------------------------===//

#include "core/ConstraintGen.h"

#include <algorithm>
#include <cassert>

using namespace light;

namespace {

/// True when \p Consumer's source write lies inside \p Own (rule R3).
bool sourceInside(const SpanVarRefs &Consumer, const SpanVarRefs &Own) {
  if (!Own.hasWrites() || !Consumer.S->Src.valid())
    return false;
  const AccessId &Src = Consumer.S->Src;
  return Src.Thread == Own.S->Thread && Src.Count >= Own.S->First &&
         Src.Count <= Own.S->Last;
}

/// Emits the R1-R6 noninterference constraints for the unordered
/// same-location span pair (A, B). Exactly one rule applies; R1,
/// read-only R3 and R5 emit nothing.
void emitSpanPairConstraints(smt::OrderSystem &Sys, const SpanVarRefs &A,
                             const SpanVarRefs &B) {
  bool SameSrc = A.S->Src.valid() == B.S->Src.valid() &&
                 (!A.S->Src.valid() || A.S->Src == B.S->Src);

  // R1: shared source, read-only on both sides.
  if (SameSrc && A.readOnly() && B.readOnly())
    return;

  // R2: shared *valid* source, exactly one side writes.
  if (SameSrc && A.S->Src.valid() && A.readOnly() != B.readOnly()) {
    const SpanVarRefs &Reader = A.readOnly() ? A : B;
    const SpanVarRefs &Writer = A.readOnly() ? B : A;
    Sys.addLess(Reader.Last, Writer.First);
    return;
  }

  // R3: a consumer whose source lies inside the other (own) span.
  if (sourceInside(A, B) || sourceInside(B, A)) {
    const SpanVarRefs &Own = sourceInside(A, B) ? B : A;
    const SpanVarRefs &Consumer = sourceInside(A, B) ? A : B;
    if (Consumer.hasWrites())
      Sys.addLess(Own.Last, Consumer.First);
    return;
  }

  // R4: init reads precede every write-implying span.
  if (A.S->Kind == SpanKind::Init || B.S->Kind == SpanKind::Init) {
    const SpanVarRefs &Init = A.S->Kind == SpanKind::Init ? A : B;
    const SpanVarRefs &Other = A.S->Kind == SpanKind::Init ? B : A;
    // Other is not Init (both-Init hits R1) and therefore contains or
    // depends on a write.
    Sys.addLess(Init.Last, Other.startVar());
    return;
  }

  // R5: both intervals fully owned by one thread's chain.
  if (A.S->Thread == B.S->Thread &&
      (!A.S->Src.valid() || A.S->Src.Thread == A.S->Thread) &&
      (!B.S->Src.valid() || B.S->Src.Thread == B.S->Thread))
    return;

  // R6: interval disjointness (Equation 1 generalized). A frozen source
  // kills the disjunct that would place the other span before it; the
  // survivor becomes a hard constraint (stronger than the clause, sound).
  if (A.SrcFrozen && A.S->Src.valid() && !(B.SrcFrozen && B.S->Src.valid())) {
    Sys.addLess(A.Last, B.startVar());
    return;
  }
  if (B.SrcFrozen && B.S->Src.valid() && !(A.SrcFrozen && A.S->Src.valid())) {
    Sys.addLess(B.Last, A.startVar());
    return;
  }
  Sys.addEitherLess(A.Last, B.startVar(), B.Last, A.startVar());
}

} // namespace

ScheduleProblem
light::generateScheduleProblem(std::vector<SpanVarRefs> &Spans) {
  ScheduleProblem P;

  auto GetVar = [&](AccessId A) -> smt::Var {
    auto [It, Inserted] = P.AccessVar.try_emplace(A.pack(), 0);
    if (Inserted) {
      It->second = P.System.newVar(A.str());
      P.VarAccess.push_back(A);
    }
    return It->second;
  };

  // 1. Order variables for every recorded access, in span order.
  for (SpanVarRefs &SV : Spans) {
    const DepSpan &S = *SV.S;
    if (S.Src.valid() && !SV.SrcFrozen)
      SV.Src = GetVar(S.Src);
    SV.First = GetVar(S.first());
    SV.Last = S.Last == S.First ? SV.First : GetVar(S.last());
  }

  // 2. Intra-thread order chains: same-thread accesses keep their counter
  //    order ("for two accesses c1 and c2 within the same thread ... we
  //    further assert O(c1) < O(c2)", Section 4.2).
  {
    std::unordered_map<ThreadId, std::vector<AccessId>> PerThread;
    for (const AccessId &A : P.VarAccess)
      PerThread[A.Thread].push_back(A);
    // unordered_map iteration order is a stdlib implementation detail;
    // emit chains in ascending thread order so clause order — and with it
    // solver decision order and the produced schedule — is identical
    // across runs and platforms.
    std::vector<ThreadId> Threads;
    Threads.reserve(PerThread.size());
    for (const auto &Entry : PerThread)
      Threads.push_back(Entry.first);
    std::sort(Threads.begin(), Threads.end());
    for (ThreadId T : Threads) {
      std::vector<AccessId> &List = PerThread[T];
      std::sort(List.begin(), List.end(),
                [](const AccessId &X, const AccessId &Y) {
                  return X.Count < Y.Count;
                });
      for (size_t I = 1; I < List.size(); ++I)
        P.System.addLess(P.AccessVar[List[I - 1].pack()],
                         P.AccessVar[List[I].pack()]);
    }
  }

  // 3. Dependence + noninterference constraints per location, in ascending
  //    location order for the same determinism reason as the chains above;
  //    within a location, spans keep their input order.
  std::vector<SpanVarRefs> ByLoc(Spans);
  std::stable_sort(ByLoc.begin(), ByLoc.end(),
                   [](const SpanVarRefs &X, const SpanVarRefs &Y) {
                     return X.S->Loc < Y.S->Loc;
                   });
  for (size_t Begin = 0, End; Begin < ByLoc.size(); Begin = End) {
    for (End = Begin + 1;
         End < ByLoc.size() && ByLoc[End].S->Loc == ByLoc[Begin].S->Loc;
         ++End)
      ;
    // Single-dependence constraints: O(c_w) < O(c_r).
    for (size_t I = Begin; I < End; ++I)
      if (ByLoc[I].S->Src.valid() && !ByLoc[I].SrcFrozen)
        P.System.addLess(ByLoc[I].Src, ByLoc[I].First);
    for (size_t I = Begin; I < End; ++I)
      for (size_t J = I + 1; J < End; ++J)
        emitSpanPairConstraints(P.System, ByLoc[I], ByLoc[J]);
  }
  return P;
}

ScheduleProblem light::buildScheduleProblem(const RecordingLog &Log) {
  std::vector<SpanVarRefs> Spans(Log.Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Spans[I].S = &Log.Spans[I];
  ScheduleProblem P = generateScheduleProblem(Spans);
  // Component metadata for sharded solving: which variables can interact.
  P.Components = smt::connectedComponents(P.System);
  return P;
}

std::vector<AccessId>
ScheduleProblem::orderOf(const smt::SolveResult &R) const {
  std::vector<uint32_t> Perm(VarAccess.size());
  for (uint32_t I = 0; I < Perm.size(); ++I)
    Perm[I] = I;
  std::sort(Perm.begin(), Perm.end(), [&](uint32_t X, uint32_t Y) {
    if (R.Values[X] != R.Values[Y])
      return R.Values[X] < R.Values[Y];
    return VarAccess[X].pack() < VarAccess[Y].pack();
  });
  std::vector<AccessId> Order;
  Order.reserve(Perm.size());
  for (uint32_t I : Perm)
    Order.push_back(VarAccess[I]);
  return Order;
}

smt::SolveResult ScheduleProblem::solve(smt::SolverEngine Engine,
                                        smt::SolverLimits Limits,
                                        std::vector<AccessId> &Order) const {
  smt::SolveResult R = smt::solveOrder(System, Engine, Limits);
  if (R.sat())
    Order = orderOf(R);
  return R;
}
