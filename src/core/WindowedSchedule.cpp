//===- core/WindowedSchedule.cpp - Incremental windowed solving -----------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "core/WindowedSchedule.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>

using namespace light;

WindowedScheduleBuilder::WindowedScheduleBuilder(WindowedOptions O)
    : Opts(std::move(O)) {
  if (!Opts.SpillPath.empty())
    Spill = std::make_unique<LongWriter>(Opts.SpillPath);
}

WindowedScheduleBuilder::~WindowedScheduleBuilder() = default;

void WindowedScheduleBuilder::fail(std::string Why) {
  if (Error.empty())
    Error = std::move(Why);
}

void WindowedScheduleBuilder::failTooSmall(WindowTooSmall::Kind What,
                                           std::string Detail) {
  if (!TooSmall.fired()) {
    TooSmall.What = What;
    TooSmall.Detail = Detail;
  }
  fail("window too small: " + std::move(Detail));
  obs::Registry::global().counter("schedule.window_too_small").add(1);
}

bool WindowedScheduleBuilder::addSpans(const RecordingLog &Log) {
  if (!ok())
    return false;
  for (size_t I = SeenSpans; I < Log.Spans.size(); ++I) {
    Arrived[Log.Spans[I].Thread].push_back(Log.Spans[I]);
    ++ArrivedCount;
  }
  SeenSpans = Log.Spans.size();
  drainReady(/*Force=*/false);
  while (Pending.size() >= Opts.WindowSpans && !Pending.empty()) {
    if (!solveWindow(std::max<size_t>(Opts.WindowSpans, 1)))
      return false;
    drainReady(/*Force=*/false);
  }
  return true;
}

void WindowedScheduleBuilder::drainReady(bool Force) {
  // Round-robin over the per-thread queues until a full pass drains
  // nothing: draining one thread's span can unblock another's (the
  // reads-from relation points back in time, so this terminates with
  // every queue empty once the stream is complete).
  bool Progress = true;
  while (Progress && ArrivedCount) {
    Progress = false;
    for (auto &[T, Queue] : Arrived) {
      while (!Queue.empty()) {
        const DepSpan &S = Queue.front();
        if (!Force && S.Src.valid() && S.Src.Thread != T &&
            S.Src.Count > DrainedLast[S.Src.Thread])
          break; // source's covering span not drained yet
        Counter &High = DrainedLast[T];
        High = std::max(High, S.Last);
        Pending.push_back(S);
        Queue.pop_front();
        --ArrivedCount;
        Progress = true;
      }
    }
  }
}

bool WindowedScheduleBuilder::finish() {
  if (!ok())
    return false;
  if (Finished)
    return true;
  Finished = true;
  drainReady(/*Force=*/true);
  while (!Pending.empty())
    if (!solveWindow(std::min(Pending.size(),
                              std::max<size_t>(Opts.WindowSpans, 1))))
      return false;
  Aggregate.Outcome = smt::SolveResult::Status::Sat;
  if (Spill) {
    Spill->finish();
    if (!Spill->ok())
      fail("order spill failed: " + Spill->error());
  }
  obs::Registry::global().counter("schedule.windows").add(Windows);
  return ok();
}

bool WindowedScheduleBuilder::solveWindow(size_t Count) {
  obs::TraceSpan Phase("schedule.window_solve", "solve");
  Phase.arg("spans", Count);

  // Frontier admission checks (see the header for the soundness argument):
  // they decide which sources are frozen, or refuse the window.
  auto HorizonOf = [&](ThreadId T) -> Counter {
    return T < FrozenHorizon.size() ? FrozenHorizon[T] : 0;
  };
  std::vector<SpanVarRefs> Spans(Count);
  for (size_t I = 0; I < Count; ++I) {
    const DepSpan &S = Pending[I];
    Spans[I].S = &S;
    if (S.First <= HorizonOf(S.Thread)) {
      failTooSmall(WindowTooSmall::Kind::StragglerSpan,
                   "span " + S.str() + " starts at or below thread " +
                       std::to_string(S.Thread) + "'s frozen horizon " +
                       std::to_string(HorizonOf(S.Thread)));
      return false;
    }
    if (S.Src.valid() && S.Src.Count <= HorizonOf(S.Src.Thread)) {
      // The source was frozen; only the newest frozen write on this
      // location is still a legal thing to read.
      Spans[I].SrcFrozen = true;
      if (S.Src.pack() != Frontier[S.Loc].NewestWritePacked) {
        failTooSmall(WindowTooSmall::Kind::StaleSource,
                     "span " + S.str() +
                         " reads a frozen write that is no longer the "
                         "newest on its location");
        return false;
      }
    }
    if (S.Kind == SpanKind::Init && Frontier[S.Loc].HasWriteOrDep) {
      failTooSmall(WindowTooSmall::Kind::InitAfterWrite,
                   "init span " + S.str() +
                       " on a location with a frozen write");
      return false;
    }
  }

  // Chains and dependences to frozen variables hold by construction: frozen
  // values < NextBase and the straggler check keeps window counters above
  // frozen ones.
  ScheduleProblem P = generateScheduleProblem(Spans);
  Phase.arg("vars", P.System.numVars());
  Phase.arg("clauses", P.System.clauses().size());
  Phase.arg("pairs_decided", P.Pairs.Decided);
  Phase.arg("saturation_rounds", P.Pairs.Rounds);
  Pairs.Pairs += P.Pairs.Pairs;
  Pairs.Decided += P.Pairs.Decided;
  Pairs.Rounds += P.Pairs.Rounds;
  obs::Registry &Reg = obs::Registry::global();
  Reg.counter("schedule.pairs_decided").add(P.Pairs.Decided);
  Reg.counter("schedule.saturation_rounds").add(P.Pairs.Rounds);
  std::vector<AccessId> Order;
  smt::SolveResult R = P.solve(Opts.Engine, Opts.Limits, Order);
  Aggregate.Decisions += R.Decisions;
  Aggregate.Propagations += R.Propagations;
  Aggregate.Conflicts += R.Conflicts;
  Aggregate.CycleChecks += R.CycleChecks;
  Aggregate.ScanSteps += R.ScanSteps;
  Aggregate.SolveSeconds += R.SolveSeconds;
  if (!R.sat()) {
    fail(R.failed()
             ? "window solve failed (" + R.failReasonStr() +
                   "): " + R.Message
             : "window constraint system unsatisfiable (malformed log?)" +
                   (R.Message.empty() ? "" : ": " + R.Message));
    return false;
  }

  // Offset-stack the window's model strictly above every frozen value,
  // then freeze: emit the fragment and advance the frontier.
  int64_t MinV = R.Values[0], MaxV = R.Values[0];
  for (smt::Var V = 1; V < P.System.numVars(); ++V) {
    MinV = std::min(MinV, R.Values[V]);
    MaxV = std::max(MaxV, R.Values[V]);
  }
  int64_t Offset = NextBase - MinV;
  NextBase = MaxV + Offset + 1;

  for (const AccessId &A : Order) {
    if (Spill)
      Spill->put(A.pack());
    else
      OrderMem.push_back(A);
  }
  OrderCount += Order.size();

  for (const AccessId &A : P.VarAccess) {
    if (A.Thread >= FrozenHorizon.size())
      FrozenHorizon.resize(A.Thread + 1, 0);
    FrozenHorizon[A.Thread] = std::max(FrozenHorizon[A.Thread], A.Count);
  }
  for (const SpanVarRefs &SV : Spans) {
    LocFrontier &F = Frontier[SV.S->Loc];
    if (SV.hasWrites() || SV.S->Src.valid())
      F.HasWriteOrDep = true;
    auto Consider = [&](AccessId Id, smt::Var V) {
      int64_t Val = R.Values[V] + Offset;
      if (!F.NewestWritePacked || Val > F.NewestWriteValue ||
          (Val == F.NewestWriteValue && Id.pack() > F.NewestWritePacked)) {
        F.NewestWritePacked = Id.pack();
        F.NewestWriteValue = Val;
      }
    };
    if (SV.hasWrites())
      Consider(SV.S->last(), SV.Last);
    if (SV.S->Src.valid() && !SV.SrcFrozen)
      Consider(SV.S->Src, SV.Src);
  }

  ++Windows;
  Pending.erase(Pending.begin(), Pending.begin() + Count);
  return true;
}

std::vector<AccessId> WindowedScheduleBuilder::solvedOrder() const {
  if (Spill)
    return loadSpilledOrder(Opts.SpillPath);
  return OrderMem;
}

ReplaySchedule
WindowedScheduleBuilder::takeSchedule(const RecordingLog &Log) const {
  return ReplaySchedule::fromSolvedOrder(Log, solvedOrder(), Aggregate);
}

std::vector<AccessId> light::loadSpilledOrder(const std::string &Path) {
  std::vector<AccessId> Order;
  LongReader Reader(Path);
  if (!Reader.ok())
    return Order;
  Order.reserve(Reader.size());
  while (!Reader.atEnd())
    Order.push_back(AccessId::unpack(Reader.get()));
  return Order;
}
