//===- tests/core/ConstraintGenTest.cpp - Equation 1 unit tests ------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "../TestPrograms.h"
#include "core/ConstraintGen.h"
#include "core/ReplaySchedule.h"
#include "smt/IdlSolver.h"

#include <gtest/gtest.h>

using namespace light;

namespace {

DepSpan readSpan(LocationId L, AccessId Src, ThreadId T, Counter First,
                 Counter Last) {
  DepSpan S;
  S.Loc = L;
  S.Src = Src;
  S.Thread = T;
  S.First = First;
  S.Last = Last;
  S.Kind = SpanKind::Read;
  return S;
}

DepSpan ownSpan(LocationId L, ThreadId T, Counter First, Counter Last,
                AccessId Src = AccessId()) {
  DepSpan S;
  S.Loc = L;
  S.Src = Src;
  S.Thread = T;
  S.First = First;
  S.Last = Last;
  S.Kind = SpanKind::Own;
  return S;
}

int64_t valueOf(const ScheduleProblem &P, const smt::SolveResult &R,
                AccessId A) {
  smt::Var V = P.varOf(A);
  EXPECT_NE(V, ~0u);
  return R.Values[V];
}

} // namespace

TEST(ConstraintGen, SingleDependenceOrdersWriteBeforeRead) {
  RecordingLog Log;
  Log.Spans.push_back(readSpan(loc::var(1), AccessId(1, 1), 2, 1, 3));
  ScheduleProblem P = buildScheduleProblem(Log);
  smt::SolveResult R = smt::solveWithIdl(P.System);
  ASSERT_TRUE(R.sat());
  EXPECT_LT(valueOf(P, R, AccessId(1, 1)), valueOf(P, R, AccessId(2, 1)));
  EXPECT_LT(valueOf(P, R, AccessId(2, 1)), valueOf(P, R, AccessId(2, 3)));
}

TEST(ConstraintGen, NoninterferenceKeepsForeignWriteOutOfInterval) {
  // Two dependences on one location: (t1,1) -> t2 reads 1..4 and
  // (t1,2) -> t3 reads 1..2. The solver must not place (t1,2) inside
  // t2's interval.
  RecordingLog Log;
  Log.Spans.push_back(readSpan(loc::var(1), AccessId(1, 1), 2, 1, 4));
  Log.Spans.push_back(readSpan(loc::var(1), AccessId(1, 2), 3, 1, 2));
  ScheduleProblem P = buildScheduleProblem(Log);
  smt::SolveResult R = smt::solveWithIdl(P.System);
  ASSERT_TRUE(R.sat());
  int64_t W1 = valueOf(P, R, AccessId(1, 1));
  int64_t W2 = valueOf(P, R, AccessId(1, 2));
  int64_t R2Last = valueOf(P, R, AccessId(2, 4));
  int64_t R3Last = valueOf(P, R, AccessId(3, 2));
  // Thread order makes W1 < W2; noninterference then forces all of t2's
  // interval before W2.
  EXPECT_LT(W1, W2);
  EXPECT_LT(R2Last, W2);
  EXPECT_LT(W2, R3Last);
}

TEST(ConstraintGen, SameSourceReadersMayInterleave) {
  // Two read spans of the same write need no mutual constraint: the
  // system has exactly the dependence and thread-order edges.
  RecordingLog Log;
  Log.Spans.push_back(readSpan(loc::var(1), AccessId(1, 1), 2, 1, 2));
  Log.Spans.push_back(readSpan(loc::var(1), AccessId(1, 1), 3, 1, 2));
  ScheduleProblem P = buildScheduleProblem(Log);
  for (const smt::Clause &C : P.System.clauses())
    EXPECT_EQ(C.size(), 1u) << "unexpected disjunction for same-source reads";
  EXPECT_TRUE(smt::solveWithIdl(P.System).sat());
}

TEST(ConstraintGen, InitSpanPrecedesEveryWrite) {
  RecordingLog Log;
  DepSpan Init;
  Init.Loc = loc::var(1);
  Init.Thread = 2;
  Init.First = 1;
  Init.Last = 3;
  Init.Kind = SpanKind::Init;
  Log.Spans.push_back(Init);
  Log.Spans.push_back(readSpan(loc::var(1), AccessId(1, 1), 3, 1, 1));
  ScheduleProblem P = buildScheduleProblem(Log);
  smt::SolveResult R = smt::solveWithIdl(P.System);
  ASSERT_TRUE(R.sat());
  EXPECT_LT(valueOf(P, R, AccessId(2, 3)), valueOf(P, R, AccessId(1, 1)));
}

TEST(ConstraintGen, OwnSpansAreMutuallyDisjoint) {
  RecordingLog Log;
  Log.Spans.push_back(ownSpan(loc::var(1), 1, 1, 5));
  Log.Spans.push_back(ownSpan(loc::var(1), 2, 1, 5));
  ScheduleProblem P = buildScheduleProblem(Log);
  smt::SolveResult R = smt::solveWithIdl(P.System);
  ASSERT_TRUE(R.sat());
  int64_t A1 = valueOf(P, R, AccessId(1, 1)), A2 = valueOf(P, R, AccessId(1, 5));
  int64_t B1 = valueOf(P, R, AccessId(2, 1)), B2 = valueOf(P, R, AccessId(2, 5));
  bool ABeforeB = A2 < B1;
  bool BBeforeA = B2 < A1;
  EXPECT_TRUE(ABeforeB || BBeforeA);
}

TEST(ConstraintGen, RmwChainIsTotallyOrdered) {
  // Lock-style chain: t1 own span (acquire..release), t2's RMW span reads
  // the span's last write (R3): hard order span1.Last < span2.First.
  RecordingLog Log;
  Log.Spans.push_back(ownSpan(loc::lock(ObjectId(1, 1)), 1, 1, 2));
  Log.Spans.push_back(
      ownSpan(loc::lock(ObjectId(1, 1)), 2, 1, 2, AccessId(1, 2)));
  ScheduleProblem P = buildScheduleProblem(Log);
  smt::SolveResult R = smt::solveWithIdl(P.System);
  ASSERT_TRUE(R.sat());
  EXPECT_LT(valueOf(P, R, AccessId(1, 2)), valueOf(P, R, AccessId(2, 1)));
}

TEST(ConstraintGen, ReadOfSpanInteriorIsCompatible) {
  // A foreign read span whose source is the last write of an own span
  // (rule R3, read-only consumer): satisfiable with the consumer after
  // the source, before the owner's successor span.
  RecordingLog Log;
  Log.Spans.push_back(ownSpan(loc::var(1), 1, 1, 4));      // contains writes
  Log.Spans.push_back(readSpan(loc::var(1), AccessId(1, 4), 2, 1, 2));
  Log.Spans.push_back(ownSpan(loc::var(1), 1, 5, 7));      // successor span
  ScheduleProblem P = buildScheduleProblem(Log);
  smt::SolveResult R = smt::solveWithIdl(P.System);
  ASSERT_TRUE(R.sat());
  EXPECT_LT(valueOf(P, R, AccessId(1, 4)), valueOf(P, R, AccessId(2, 1)));
  EXPECT_LT(valueOf(P, R, AccessId(2, 2)), valueOf(P, R, AccessId(1, 5)));
}

TEST(ConstraintGen, VariableNamesAidDebugging) {
  RecordingLog Log;
  Log.Spans.push_back(readSpan(loc::var(1), AccessId(1, 1), 2, 1, 1));
  ScheduleProblem P = buildScheduleProblem(Log);
  ASSERT_GE(P.System.numVars(), 2u);
  EXPECT_EQ(P.System.name(P.varOf(AccessId(1, 1))), "(t1,1)");
}

TEST(ReplayScheduleClassify, ClassesAreConsistent) {
  RecordingLog Log;
  Log.Spans.push_back(readSpan(loc::var(1), AccessId(1, 1), 2, 1, 3));
  Log.FinalCounters = {0, 2, 4};
  ReplaySchedule RS = ReplaySchedule::build(Log);
  ASSERT_TRUE(RS.ok());

  uint32_t Turn;
  uint64_t Src;
  // The source write is gated.
  EXPECT_EQ(RS.classify(1, loc::var(1), 1, true, Turn, Src),
            AccessClass::Gated);
  // The span endpoints are gated; the interior read runs free.
  EXPECT_EQ(RS.classify(2, loc::var(1), 1, false, Turn, Src),
            AccessClass::Gated);
  EXPECT_EQ(Src, AccessId(1, 1).pack());
  EXPECT_EQ(RS.classify(2, loc::var(1), 2, false, Turn, Src),
            AccessClass::Interior);
  EXPECT_EQ(RS.classify(2, loc::var(1), 3, false, Turn, Src),
            AccessClass::Gated);
  // An unrecorded write below the horizon is blind; past it, permissive.
  EXPECT_EQ(RS.classify(1, loc::var(1), 2, true, Turn, Src),
            AccessClass::Blind);
  EXPECT_EQ(RS.classify(1, loc::var(1), 3, true, Turn, Src),
            AccessClass::BeyondHorizon);
}

namespace {

/// A multi-location, multi-thread log that used to exercise the
/// unordered_map iteration orders in buildScheduleProblem: several
/// locations each with a cross-thread dependence plus own-span traffic.
RecordingLog manyLocationLog() {
  RecordingLog Log;
  Counter Next[5] = {0, 1, 1, 1, 1};
  for (uint64_t L = 1; L <= 9; ++L) {
    LocationId Loc = loc::var(L);
    ThreadId W = static_cast<ThreadId>(1 + (L % 4));
    ThreadId R = static_cast<ThreadId>(1 + ((L + 1) % 4));
    AccessId Src(W, Next[W]);
    Next[W] += 1;
    Log.Spans.push_back(readSpan(Loc, Src, R, Next[R], Next[R] + 1));
    Next[R] += 2;
    ThreadId O = static_cast<ThreadId>(1 + ((L + 2) % 4));
    Log.Spans.push_back(ownSpan(Loc, O, Next[O], Next[O] + 2));
    Next[O] += 3;
  }
  Log.FinalCounters = {0, Next[1], Next[2], Next[3], Next[4]};
  return Log;
}

} // namespace

TEST(ConstraintGen, RepeatedBuildsAreIdentical) {
  // Regression: ByLoc and PerThread were iterated in unordered_map order,
  // so variable numbering was stable but clause order — and with it the
  // solver's decision order — depended on the hash layout. Two builds of
  // the same log must now agree exactly, down to component metadata.
  RecordingLog Log = manyLocationLog();
  ScheduleProblem P1 = buildScheduleProblem(Log);
  ScheduleProblem P2 = buildScheduleProblem(Log);
  EXPECT_TRUE(P1.System == P2.System);
  ASSERT_EQ(P1.VarAccess.size(), P2.VarAccess.size());
  for (size_t I = 0; I < P1.VarAccess.size(); ++I)
    EXPECT_EQ(P1.VarAccess[I].pack(), P2.VarAccess[I].pack());
  EXPECT_EQ(P1.Components.NumComponents, P2.Components.NumComponents);
  EXPECT_EQ(P1.Components.CompOfVar, P2.Components.CompOfVar);
}

TEST(ConstraintGen, RepeatedSolvedSchedulesAreIdentical) {
  // The end-to-end determinism guarantee: the same log solves to the same
  // byte-identical schedule every time, monolithic and sharded alike.
  RecordingLog Log = manyLocationLog();
  ReplaySchedule S1 = ReplaySchedule::build(Log);
  ReplaySchedule S2 = ReplaySchedule::build(Log);
  ASSERT_TRUE(S1.ok()) << S1.error();
  ASSERT_TRUE(S2.ok()) << S2.error();
  ASSERT_EQ(S1.order().size(), S2.order().size());
  for (size_t I = 0; I < S1.order().size(); ++I)
    EXPECT_EQ(S1.order()[I].pack(), S2.order()[I].pack()) << "turn " << I;

  // Sharded schedules are built the way reproduce-dense builds them.
  for (unsigned Shards : {2u, 4u, 0u}) {
    ReplaySchedule SS = testprogs::shardedSchedule(Log, Shards);
    ReplaySchedule SS2 = testprogs::shardedSchedule(Log, Shards);
    ASSERT_TRUE(SS.ok()) << "shards " << Shards;
    ASSERT_TRUE(SS2.ok()) << "shards " << Shards;
    ASSERT_EQ(SS.order().size(), S1.order().size()) << "shards " << Shards;
    ASSERT_EQ(SS2.order().size(), SS.order().size()) << "shards " << Shards;
    for (size_t I = 0; I < SS.order().size(); ++I)
      EXPECT_EQ(SS.order()[I].pack(), SS2.order()[I].pack())
          << "shards " << Shards << " turn " << I;
  }
}

TEST(ConstraintGen, UnfrozenWindowEqualsMonolithicBuild) {
  // The windowed builder and buildScheduleProblem share one generator: over
  // the same span list with no frozen source, a window's system is the
  // monolithic system, variable for variable and clause for clause.
  for (const RecordingLog &Log :
       {manyLocationLog(),
        testprogs::recordRun(testprogs::counterRace(3, 6), 17).Log}) {
    std::vector<SpanVarRefs> Window(Log.Spans.size());
    for (size_t I = 0; I < Window.size(); ++I)
      Window[I].S = &Log.Spans[I];
    ScheduleProblem W = generateScheduleProblem(Window);
    ScheduleProblem M = buildScheduleProblem(Log);
    EXPECT_TRUE(W.System == M.System);
    ASSERT_EQ(W.VarAccess.size(), M.VarAccess.size());
    for (size_t I = 0; I < W.VarAccess.size(); ++I)
      EXPECT_EQ(W.VarAccess[I].pack(), M.VarAccess[I].pack());
    // The generator hands back each span's own endpoint variables.
    for (size_t I = 0; I < Window.size(); ++I) {
      EXPECT_EQ(Window[I].First, M.varOf(Log.Spans[I].first()));
      EXPECT_EQ(Window[I].Last, M.varOf(Log.Spans[I].last()));
    }
  }
}

TEST(ConstraintGen, FrozenSourceGetsNoVariableAndHardensR6) {
  // t2 reads the frozen write (t1,5) on x over [1, 2]; t3 owns x over
  // [1, 2]. The pair falls to R6, whose disjunct "t2's interval after t3"
  // would need t3 before the frozen source: only "t2 before t3" survives.
  RecordingLog Log;
  Log.Spans.push_back(readSpan(loc::var(1), AccessId(1, 5), 2, 1, 2));
  Log.Spans.push_back(ownSpan(loc::var(1), 3, 1, 2));
  std::vector<SpanVarRefs> Window(2);
  Window[0].S = &Log.Spans[0];
  Window[0].SrcFrozen = true;
  Window[1].S = &Log.Spans[1];
  ScheduleProblem P = generateScheduleProblem(Window);
  EXPECT_EQ(P.varOf(AccessId(1, 5)), ~0u);
  EXPECT_EQ(P.System.numVars(), 4u);
  smt::Var R1 = P.varOf(AccessId(2, 1)), R2 = P.varOf(AccessId(2, 2));
  smt::Var O1 = P.varOf(AccessId(3, 1)), O2 = P.varOf(AccessId(3, 2));
  std::vector<int64_t> ReaderFirst(4), OwnerFirst(4);
  ReaderFirst[R1] = 0, ReaderFirst[R2] = 1;
  ReaderFirst[O1] = 2, ReaderFirst[O2] = 3;
  OwnerFirst[O1] = 0, OwnerFirst[O2] = 1;
  OwnerFirst[R1] = 2, OwnerFirst[R2] = 3;
  EXPECT_TRUE(P.System.satisfiedBy(ReaderFirst));
  EXPECT_FALSE(P.System.satisfiedBy(OwnerFirst));
  // Unfrozen, the same pair is a genuine disjunction: both orders satisfy.
  std::vector<SpanVarRefs> Open(2);
  Open[0].S = &Log.Spans[0];
  Open[1].S = &Log.Spans[1];
  ScheduleProblem Q = generateScheduleProblem(Open);
  EXPECT_NE(Q.varOf(AccessId(1, 5)), ~0u);
  EXPECT_EQ(Q.System.numVars(), 5u);
}

namespace {

bool hasBinaryClause(const smt::OrderSystem &Sys) {
  for (const smt::Clause &C : Sys.clauses())
    if (C.size() > 1)
      return true;
  return false;
}

} // namespace

TEST(ConstraintGen, PairOrderedByDependenceChainEmitsNoBinaryClause) {
  // On x, t2 reads (t1,1) at (t2,1) and t3 owns x over [2, 3]. Through y,
  // t2's next write (t2,2) is read by (t3,1), so the chain
  // (t2,1) < (t2,2) < (t3,1) < (t3,2) already places t2's interval before
  // t3's: the R6 pair is decided and never reaches the solver.
  RecordingLog Log;
  Log.Spans.push_back(readSpan(loc::var(1), AccessId(1, 1), 2, 1, 1));
  Log.Spans.push_back(ownSpan(loc::var(1), 3, 2, 3));
  Log.Spans.push_back(readSpan(loc::var(2), AccessId(2, 2), 3, 1, 1));
  ScheduleProblem P = buildScheduleProblem(Log);
  EXPECT_FALSE(hasBinaryClause(P.System)) << P.System.str();
  EXPECT_EQ(P.Pairs.Pairs, 1u);
  EXPECT_EQ(P.Pairs.Decided, 1u);
  EXPECT_TRUE(P.HardCycle.empty());
  EXPECT_TRUE(smt::solveWithIdl(P.System).sat());
}

TEST(ConstraintGen, ContradictedDisjunctBecomesExactlyTheOtherUnit) {
  // (t1,1) -> t2 reads [1, 4] and (t1,2) -> t3 reads [1, 2]. The disjunct
  // "t3's interval before (t1,1)" is impossible ((t1,1) < (t1,2) < (t3,1)
  // < (t3,2)), so the pair becomes the unit (t2,4) < (t1,2).
  RecordingLog Log;
  Log.Spans.push_back(readSpan(loc::var(1), AccessId(1, 1), 2, 1, 4));
  Log.Spans.push_back(readSpan(loc::var(1), AccessId(1, 2), 3, 1, 2));
  ScheduleProblem P = buildScheduleProblem(Log);
  EXPECT_FALSE(hasBinaryClause(P.System)) << P.System.str();
  // Three chain edges, two dependences and the decided pair.
  ASSERT_EQ(P.System.clauses().size(), 6u) << P.System.str();
  smt::Atom Survivor =
      smt::Atom::less(P.varOf(AccessId(2, 4)), P.varOf(AccessId(1, 2)));
  EXPECT_EQ(P.System.clauses().back(), smt::Clause{Survivor});
  EXPECT_GE(P.Pairs.Rounds, 2u);
}

TEST(ConstraintGen, CrossingDependencesAreAnExplainedHardCycle) {
  // t1 reads y from (t2,2) at (t1,1) and t2 reads x from (t1,2) at (t2,1):
  // each thread reads a write the other makes only afterwards. The hard
  // edges close a cycle, so the verdict is Unsat without any search, and
  // the message names both reads.
  RecordingLog Log;
  Log.Spans.push_back(readSpan(loc::var(2), AccessId(2, 2), 1, 1, 1));
  Log.Spans.push_back(readSpan(loc::var(1), AccessId(1, 2), 2, 1, 1));
  Log.FinalCounters = {0, 2, 2};
  ScheduleProblem P = buildScheduleProblem(Log);
  ASSERT_FALSE(P.HardCycle.empty());
  std::vector<AccessId> Order;
  smt::SolveResult R = P.solve(smt::SolverEngine::Idl, {}, Order);
  EXPECT_EQ(R.Outcome, smt::SolveResult::Status::Unsat);
  EXPECT_EQ(R.Decisions, 0u);
  EXPECT_EQ(R.Message, P.HardCycle);
  EXPECT_NE(R.Message.find("(t1,1) reads (t2,2)"), std::string::npos)
      << R.Message;
  EXPECT_NE(R.Message.find("(t2,1) reads (t1,2)"), std::string::npos)
      << R.Message;
  EXPECT_NE(R.Message.find("(t1,1) precedes (t1,2)"), std::string::npos)
      << R.Message;
  // The emitted system is unsatisfiable on its own as well.
  EXPECT_FALSE(smt::solveWithIdl(P.System).sat());

  ReplaySchedule RS = ReplaySchedule::build(Log);
  ASSERT_FALSE(RS.ok());
  EXPECT_NE(RS.error().find("replay constraint system unsatisfiable"),
            std::string::npos);
  EXPECT_NE(RS.error().find("(t2,1) reads (t1,2)"), std::string::npos)
      << RS.error();
}

TEST(ConstraintGen, RewrittenSourceCycleNamesTheRewrittenSpan) {
  // The negative control of the reproduce-dense benchmark: point one
  // span's source at another write of the same location. When that write
  // comes later on the reading thread itself, the read now precedes its
  // own source — a hard cycle whose explanation must name the span.
  RecordingLog Recorded =
      testprogs::recordRun(testprogs::counterRace(3, 6), 17).Log;
  bool Found = false;
  for (size_t I = 0; I < Recorded.Spans.size() && !Found; ++I) {
    const DepSpan &A = Recorded.Spans[I];
    if (!A.Src.valid())
      continue;
    for (const DepSpan &B : Recorded.Spans) {
      if (B.Loc != A.Loc || !B.Src.valid() || B.Src == A.Src ||
          B.Src.Thread != A.Thread || B.Src.Count <= A.Last)
        continue;
      RecordingLog Log = Recorded;
      Log.Spans[I].Src = B.Src;
      ScheduleProblem P = buildScheduleProblem(Log);
      ASSERT_FALSE(P.HardCycle.empty()) << Log.Spans[I].str();
      EXPECT_NE(P.HardCycle.find(Log.Spans[I].str()), std::string::npos)
          << P.HardCycle;
      ReplaySchedule RS = ReplaySchedule::build(Log);
      ASSERT_FALSE(RS.ok());
      EXPECT_NE(RS.error().find(Log.Spans[I].str()), std::string::npos)
          << RS.error();
      Found = true;
      break;
    }
  }
  EXPECT_TRUE(Found) << "no rewritable source in the recorded log";
}
