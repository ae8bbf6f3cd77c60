//===- core/ReplaySchedule.cpp - Solved replay schedules -------------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "core/ReplaySchedule.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cassert>

using namespace light;

ReplaySchedule ReplaySchedule::build(const RecordingLog &Log,
                                     smt::SolverEngine Engine,
                                     smt::SolverLimits Limits) {
  ScheduleProblem P = [&] {
    obs::TraceSpan Span("schedule.constraint_gen", "solve");
    ScheduleProblem Problem = buildScheduleProblem(Log);
    Span.arg("vars", Problem.System.numVars());
    Span.arg("clauses", Problem.System.clauses().size());
    Span.arg("components", Problem.Components.NumComponents);
    Span.arg("pairs_decided", Problem.Pairs.Decided);
    Span.arg("saturation_rounds", Problem.Pairs.Rounds);
    return Problem;
  }();
  obs::Registry &Reg = obs::Registry::global();
  Reg.counter("schedule.order_vars").add(P.System.numVars());
  Reg.counter("schedule.clauses").add(P.System.clauses().size());
  Reg.counter("schedule.pairs_decided").add(P.Pairs.Decided);
  Reg.counter("schedule.saturation_rounds").add(P.Pairs.Rounds);
  Reg.gauge("schedule.components")
      .set(static_cast<int64_t>(P.Components.NumComponents));
  std::vector<AccessId> Order;
  smt::SolveResult Stats = P.solve(Engine, Limits, Order);
  if (!Stats.sat()) {
    ReplaySchedule RS;
    RS.Error = Stats.failed()
                   ? "schedule solve failed (" + Stats.failReasonStr() +
                         "): " + Stats.Message
                   : "replay constraint system unsatisfiable (malformed log?)" +
                         (Stats.Message.empty() ? "" : ": " + Stats.Message);
    RS.Stats = std::move(Stats);
    RS.Pairs = P.Pairs;
    return RS;
  }
  ReplaySchedule RS = fromSolvedOrder(Log, std::move(Order), std::move(Stats));
  RS.Pairs = P.Pairs;
  return RS;
}

ReplaySchedule ReplaySchedule::fromSolvedOrder(const RecordingLog &Log,
                                               std::vector<AccessId> Order,
                                               smt::SolveResult Stats) {
  ReplaySchedule RS;
  RS.Satisfiable = true;
  RS.Stats = std::move(Stats);
  RS.Stats.Outcome = smt::SolveResult::Status::Sat;
  RS.Order = std::move(Order);
  RS.assemble(Log);
  return RS;
}

void ReplaySchedule::assemble(const RecordingLog &Log) {
  TurnOf.reserve(Order.size());
  for (size_t I = 0; I < Order.size(); ++I)
    TurnOf[Order[I].pack()] = static_cast<uint32_t>(I);

  // Span index for interior classification.
  size_t NumThreads = Log.FinalCounters.size();
  for (const DepSpan &S : Log.Spans)
    NumThreads = std::max(NumThreads, static_cast<size_t>(S.Thread) + 1);
  Spans.resize(NumThreads);
  for (const DepSpan &S : Log.Spans)
    Spans[S.Thread][S.Loc].push_back(
        {S.First, S.Last, S.Kind, S.Src.valid() ? S.Src.pack() : 0});
  for (auto &PerThread : Spans)
    for (auto &[L, List] : PerThread)
      std::sort(List.begin(), List.end(),
                [](const SpanInfo &A, const SpanInfo &B) {
                  return A.First < B.First;
                });

  Guards = Log.Guards;

  SyscallValues.resize(NumThreads);
  for (const SyscallRecord &R : Log.Syscalls)
    if (R.Thread < NumThreads)
      SyscallValues[R.Thread].push_back(R.Value);

  Spawns = Log.Spawns;
  FinalCounters = Log.FinalCounters;
}

AccessClass ReplaySchedule::classify(ThreadId T, LocationId L, Counter C,
                                     bool IsWrite, uint32_t &TurnOut,
                                     uint64_t &ExpectedSrcOut) const {
  TurnOut = 0;
  ExpectedSrcOut = 0;
  if (T >= FinalCounters.size() || C > FinalCounters[T])
    return AccessClass::BeyondHorizon;
  if (!Guards.empty() && Guards.covers(L))
    return AccessClass::Guarded;

  // Locate the span (if any) covering counter C on (T, L).
  const SpanInfo *Covering = nullptr;
  if (T < Spans.size()) {
    auto It = Spans[T].find(L);
    if (It != Spans[T].end()) {
      const std::vector<SpanInfo> &List = It->second;
      // Last span with First <= C.
      auto Pos = std::upper_bound(
          List.begin(), List.end(), C,
          [](Counter Val, const SpanInfo &S) { return Val < S.First; });
      if (Pos != List.begin()) {
        const SpanInfo &Cand = *std::prev(Pos);
        if (C <= Cand.Last)
          Covering = &Cand;
      }
    }
  }

  if (Covering) {
    if (Covering->Kind == SpanKind::Own) {
      // The span head reads its recorded source; every later access reads
      // some write of the span itself.
      ExpectedSrcOut =
          C == Covering->First ? Covering->SrcPacked : OwnSpanSource;
    } else {
      ExpectedSrcOut = Covering->SrcPacked;
    }
  }

  auto TurnIt = TurnOf.find(AccessId(T, C).pack());
  if (TurnIt != TurnOf.end()) {
    TurnOut = TurnIt->second;
    return AccessClass::Gated;
  }

  if (Covering)
    return AccessClass::Interior;
  return IsWrite ? AccessClass::Blind : AccessClass::Unknown;
}
