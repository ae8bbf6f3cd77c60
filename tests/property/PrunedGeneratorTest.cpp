//===- tests/property/PrunedGeneratorTest.cpp - Pruned vs full Equation 1 -===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// The constraint generator decides Equation 1 against the hard order
/// before anything reaches the solver (core/ConstraintGen.cpp). This suite
/// checks that the pruned system is equivalent to the full one. The full
/// R1-R6 emission, one clause per same-location span pair, is kept here as
/// a test-local reference (referenceProblem). For recorded random programs
/// (full, sharedOnly and syncPrimitives configurations; random and bursty
/// schedules) and for copies with one source rewritten the way the
/// reproduce-dense negative control rewrites it:
///
///   1. the pruned and the reference system agree on SAT/UNSAT;
///   2. every IDL and Z3 model of the pruned system satisfies the
///      reference system;
///   3. the pruned system has no more clauses than the reference;
///   4. two builds of one log are identical.
///
/// Honors LIGHT_TEST_SEED / LIGHT_TEST_ITERS (testlib/TestEnv.h).
///
//===----------------------------------------------------------------------===//

#include "../TestPrograms.h"
#include "smt/IdlSolver.h"
#include "support/Random.h"
#include "testlib/ProgramGen.h"
#include "testlib/TestEnv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace light;
using namespace light::mir;
using namespace light::testprogs;

namespace {

bool sourceInside(const SpanVarRefs &Consumer, const SpanVarRefs &Own) {
  if (!Own.hasWrites() || !Consumer.S->Src.valid())
    return false;
  const AccessId &Src = Consumer.S->Src;
  return Src.Thread == Own.S->Thread && Src.Count >= Own.S->First &&
         Src.Count <= Own.S->Last;
}

/// The full rules R1-R6 for one pair, emitted without looking at any
/// other constraint (the generator before pruning).
void referencePair(smt::OrderSystem &Sys, const SpanVarRefs &A,
                   const SpanVarRefs &B) {
  bool SameSrc = A.S->Src.valid() == B.S->Src.valid() &&
                 (!A.S->Src.valid() || A.S->Src == B.S->Src);
  if (SameSrc && A.readOnly() && B.readOnly())
    return;
  if (SameSrc && A.S->Src.valid() && A.readOnly() != B.readOnly()) {
    const SpanVarRefs &Reader = A.readOnly() ? A : B;
    const SpanVarRefs &Writer = A.readOnly() ? B : A;
    Sys.addLess(Reader.Last, Writer.First);
    return;
  }
  if (sourceInside(A, B) || sourceInside(B, A)) {
    const SpanVarRefs &Own = sourceInside(A, B) ? B : A;
    const SpanVarRefs &Consumer = sourceInside(A, B) ? A : B;
    if (Consumer.hasWrites())
      Sys.addLess(Own.Last, Consumer.First);
    return;
  }
  if (A.S->Kind == SpanKind::Init || B.S->Kind == SpanKind::Init) {
    const SpanVarRefs &Init = A.S->Kind == SpanKind::Init ? A : B;
    const SpanVarRefs &Other = A.S->Kind == SpanKind::Init ? B : A;
    Sys.addLess(Init.Last, Other.startVar());
    return;
  }
  if (A.S->Thread == B.S->Thread &&
      (!A.S->Src.valid() || A.S->Src.Thread == A.S->Thread) &&
      (!B.S->Src.valid() || B.S->Src.Thread == B.S->Thread))
    return;
  Sys.addEitherLess(A.Last, B.startVar(), B.Last, A.startVar());
}

/// The full system for \p Log, with the variables numbered exactly as the
/// generator numbers them (span order, Src/First/Last).
ScheduleProblem referenceProblem(const RecordingLog &Log) {
  ScheduleProblem P;
  std::vector<SpanVarRefs> Spans = spanRefsOf(Log);
  auto GetVar = [&](AccessId A) -> smt::Var {
    auto [It, Inserted] = P.AccessVar.try_emplace(A.pack(), 0);
    if (Inserted) {
      It->second = P.System.newVar(A.str());
      P.VarAccess.push_back(A);
    }
    return It->second;
  };
  for (SpanVarRefs &SV : Spans) {
    if (SV.S->Src.valid())
      SV.Src = GetVar(SV.S->Src);
    SV.First = GetVar(SV.S->first());
    SV.Last = SV.S->Last == SV.S->First ? SV.First : GetVar(SV.S->last());
  }
  std::map<ThreadId, std::vector<AccessId>> PerThread;
  for (const AccessId &A : P.VarAccess)
    PerThread[A.Thread].push_back(A);
  for (auto &[T, List] : PerThread) {
    std::sort(List.begin(), List.end(),
              [](const AccessId &X, const AccessId &Y) {
                return X.Count < Y.Count;
              });
    for (size_t I = 1; I < List.size(); ++I)
      P.System.addLess(P.varOf(List[I - 1]), P.varOf(List[I]));
  }
  std::stable_sort(Spans.begin(), Spans.end(),
                   [](const SpanVarRefs &X, const SpanVarRefs &Y) {
                     return X.S->Loc < Y.S->Loc;
                   });
  for (size_t Begin = 0, End; Begin < Spans.size(); Begin = End) {
    for (End = Begin + 1;
         End < Spans.size() && Spans[End].S->Loc == Spans[Begin].S->Loc;
         ++End)
      ;
    for (size_t I = Begin; I < End; ++I)
      if (Spans[I].S->Src.valid())
        P.System.addLess(Spans[I].Src, Spans[I].First);
    for (size_t I = Begin; I < End; ++I)
      for (size_t J = I + 1; J < End; ++J)
        referencePair(P.System, Spans[I], Spans[J]);
  }
  return P;
}

/// Points the first sourced span's source at another write of the same
/// location, as the reproduce-dense negative control does.
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

void expectEquivalent(const RecordingLog &Log) {
  ScheduleProblem Ref = referenceProblem(Log);
  ScheduleProblem P = buildScheduleProblem(Log);
  ScheduleProblem Again = buildScheduleProblem(Log);

  ASSERT_EQ(P.System.numVars(), Ref.System.numVars());
  for (size_t I = 0; I < P.VarAccess.size(); ++I)
    ASSERT_EQ(P.VarAccess[I].pack(), Ref.VarAccess[I].pack());
  EXPECT_LE(P.System.clauses().size(), Ref.System.clauses().size());
  EXPECT_TRUE(P.System == Again.System) << "two builds differ";
  EXPECT_EQ(P.HardCycle, Again.HardCycle);
  EXPECT_EQ(P.Pairs.Decided, Again.Pairs.Decided);

  smt::SolveResult RefIdl = smt::solveWithIdl(Ref.System);
  std::vector<AccessId> Order;
  smt::SolveResult Idl = P.solve(smt::SolverEngine::Idl, {}, Order);
  smt::SolveResult Z3 = P.solve(smt::SolverEngine::Z3, {}, Order);
  ASSERT_FALSE(RefIdl.failed() || Idl.failed() || Z3.failed());
  EXPECT_EQ(Idl.sat(), RefIdl.sat()) << P.HardCycle;
  EXPECT_EQ(Z3.sat(), RefIdl.sat()) << P.HardCycle;
  // A hard cycle is a definitive UNSAT of the emitted system too.
  if (!P.HardCycle.empty())
    EXPECT_FALSE(smt::solveWithIdl(P.System).sat());
  if (Idl.sat())
    EXPECT_TRUE(Ref.System.satisfiedBy(Idl.Values))
        << "an IDL model of the pruned system violates the full system";
  if (Z3.sat())
    EXPECT_TRUE(Ref.System.satisfiedBy(Z3.Values))
        << "a Z3 model of the pruned system violates the full system";
}

class PrunedGenerator : public ::testing::TestWithParam<int> {};

} // namespace

TEST_P(PrunedGenerator, EquivalentToFullEmission) {
  uint64_t Seed = testenv::effectiveSeed(static_cast<uint64_t>(GetParam()));
  SCOPED_TRACE(testenv::repro(Seed));
  Rng R(Seed * 0x6a09e667ull + 11);
  const testgen::GenConfig Configs[] = {testgen::GenConfig::full(),
                                        testgen::GenConfig::sharedOnly(),
                                        testgen::GenConfig::syncPrimitives()};
  for (size_t C = 0; C < 3; ++C) {
    SCOPED_TRACE("config " + std::to_string(C));
    Program Prog = testgen::randomProgram(R, Configs[C]);
    ASSERT_EQ(Prog.verify(), "") << Prog.str();
    for (bool Bursty : {false, true}) {
      SCOPED_TRACE(Bursty ? "bursty schedule" : "random schedule");
      uint64_t RunSeed = Seed * 31 + C;
      RecordOutcome Rec = Bursty ? recordRunBursty(Prog, RunSeed)
                                 : recordRun(Prog, RunSeed);
      ASSERT_TRUE(Rec.Result.Completed) << Rec.Result.Bug.str();
      expectEquivalent(Rec.Log);
      RecordingLog Rewritten = Rec.Log;
      if (rewriteOneSource(Rewritten)) {
        SCOPED_TRACE("source rewritten");
        expectEquivalent(Rewritten);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrunedGenerator,
                         ::testing::Range(1, 1 + testenv::iters(12)));
