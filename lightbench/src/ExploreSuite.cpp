//===- lightbench/src/ExploreSuite.cpp - Schedule-exploration workload ----===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// explore-suite: bounded-preemption DFS (bound 2) and PCT (depth 3) over
/// the 8 Figure-6 and 4 synchronization bug kernels, with the seed as the
/// environment seed of every explored run. One unit of work is one pass
/// over the 24 (kernel, strategy) pairs, each explored twice: once until
/// its first bug (how soon search reproduces the failure), and once over a
/// fixed budget of 400 schedules with stop-at-first-bug off (the
/// throughput of the interpreter and the exploration schedulers). No
/// recorder or solver runs here.
///
/// Work item: one explored schedule of the fixed-budget searches.
/// Latency: the pass's total seconds for all 24 searches to reach their
/// first bug. Checks: every first-bug search manifests its kernel's bug,
/// and every fixed-budget search finds it exactly when the first-bug
/// search needed no more schedules than the budget.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "bugs/BugPrograms.h"
#include "explore/ExplorationDriver.h"
#include "mir/Builder.h"

using namespace light;
using namespace light::explore;

namespace lb {
namespace {

/// Two workers incrementing a global under one lock: no schedule fails.
/// Stands in for one kernel in the negative control.
mir::Program bugFreeProgram() {
  using namespace light::mir;
  ProgramBuilder PB;
  ClassId LockCls = PB.addClass("Lock", {"pad"});
  uint32_t GCount = PB.addGlobal("count"), GLock = PB.addGlobal("lock");
  FunctionBuilder W = PB.beginFunction("worker", 0);
  Reg L = W.newReg(), V = W.newReg(), One = W.newReg();
  W.getGlobal(L, GLock);
  W.constInt(One, 1);
  W.monitorEnter(L);
  W.getGlobal(V, GCount);
  W.add(V, V, One);
  W.putGlobal(GCount, V);
  W.monitorExit(L);
  W.ret();
  FuncId Worker = PB.endFunction(W);
  FunctionBuilder M = PB.beginFunction("main", 0);
  Reg Obj = M.newReg(), T1 = M.newReg(), T2 = M.newReg();
  M.newObject(Obj, LockCls);
  M.putGlobal(GLock, Obj);
  M.threadStart(T1, Worker);
  M.threadStart(T2, Worker);
  M.threadJoin(T1);
  M.threadJoin(T2);
  M.ret();
  PB.setEntry(PB.endFunction(M));
  return PB.take();
}

class ExploreSuite : public Workload {
public:
  explicit ExploreSuite(const Options &O) : O(O) {
    Budget = O.Size ? O.Size : 400;
  }

  const char *itemName() const override {
    return "schedule explored by the fixed-budget DFS/PCT searches";
  }
  const char *latencyName() const override {
    return "one pass: all 24 searches run to their first bug";
  }
  Combine combine() const override { return Combine::Sum; }

  void setup() override {
    Kernels.clear();
    for (std::vector<bugs::BugBenchmark> Suite :
         {bugs::makeBugSuite(), bugs::makeSyncBugSuite()})
      for (bugs::BugBenchmark &B : Suite)
        Kernels.push_back({B.Name, std::move(B.Prog)});
    if (O.NegativeControl)
      Kernels.front().Prog = bugFreeProgram();
  }

  Sample iterate(Checks &C, bool Traced) override {
    resetPeakRss();
    Sample S;
    uint64_t Schedules = 0, Distinct = 0, Deadlocks = 0, ToBug = 0;
    for (const Kernel &K : Kernels)
      for (bool Dfs : {true, false}) {
        std::string Tag = "explore-suite " + K.Name +
                          (Dfs ? " dfs" : " pct") + ": ";
        ExploreOptions First = options(FirstBugBudget, true);
        ExploreReport R;
        {
          Span Sp(Dfs ? "explore.exploreDfs.first-bug"
                      : "explore.explorePct.first-bug");
          R = Dfs ? exploreDfs(K.Prog, First) : explorePct(K.Prog, First);
          S.LatencySeconds.push_back(Sp.stop());
        }
        C.expect(R.BugFound, Tag + "no bug within " +
                                 std::to_string(FirstBugBudget) +
                                 " schedules");
        ToBug += R.SchedulesRun;
        uint64_t FirstBugAt = R.SchedulesRun;

        ExploreOptions Full = options(Budget, false);
        {
          Span Sp(Dfs ? "explore.exploreDfs.budget"
                      : "explore.explorePct.budget");
          R = Dfs ? exploreDfs(K.Prog, Full) : explorePct(K.Prog, Full);
          S.WorkSeconds.push_back(Sp.stop());
        }
        // Exploration is deterministic: the fixed-budget search must meet
        // the bug exactly when the first-bug search needed no more
        // schedules than the budget.
        C.expect(R.BugFound == (FirstBugAt <= Budget),
                 Tag + "fixed-budget search disagrees with the first-bug "
                       "search");
        S.WorkDone.push_back(static_cast<double>(R.SchedulesRun));
        Schedules += R.SchedulesRun;
        Distinct += R.DistinctInterleavings;
        Deadlocks += R.Deadlocks;
      }
    if (Traced) {
      SchedulesV.push_back(static_cast<double>(Schedules));
      DistinctRatio.push_back(static_cast<double>(Distinct) /
                              static_cast<double>(Schedules));
      DeadlocksV.push_back(static_cast<double>(Deadlocks));
      ToBugV.push_back(static_cast<double>(ToBug));
      InterpRates.push_back(interpRate());
    }
    S.PeakRssMb = peakRssMb();
    return S;
  }

  void layerMetrics(std::vector<Metric> &Out) override {
    Out.push_back({"interp.minstr_per_s", median(InterpRates), "",
                   InterpRates.size()});
    Out.push_back({"explore.schedules", median(SchedulesV), "",
                   SchedulesV.size()});
    Out.push_back({"explore.distinct_ratio", median(DistinctRatio), "",
                   DistinctRatio.size()});
    Out.push_back({"explore.deadlocks", median(DeadlocksV), "",
                   DeadlocksV.size()});
    Out.push_back({"explore.schedules_to_bug", median(ToBugV), "",
                   ToBugV.size()});
  }

private:
  struct Kernel {
    std::string Name;
    mir::Program Prog;
  };

  ExploreOptions options(uint64_t Schedules, bool StopAtFirstBug) const {
    ExploreOptions E;
    E.ScheduleBudget = Schedules;
    E.PreemptionBound = 2;
    E.PctDepth = 3;
    E.PctSeeds = Schedules;
    E.StopAtFirstBug = StopAtFirstBug;
    E.EnvSeed = O.Seed;
    return E;
  }

  /// Interpreter throughput on the default (non-preemptive) schedule of
  /// every kernel, through ExplorationDriver::runPrefix.
  double interpRate() const {
    uint64_t Instructions = 0;
    double Secs = 0;
    ExploreOptions E = options(1, false);
    for (const Kernel &K : Kernels) {
      ExplorationDriver D(K.Prog, E);
      Span Sp("explore.ExplorationDriver.runPrefix");
      for (int I = 0; I < 20; ++I)
        Instructions += D.runPrefix({}).Result.InstructionsExecuted;
      Secs += Sp.stop();
    }
    return static_cast<double>(Instructions) / 1e6 / Secs;
  }

  static constexpr uint64_t FirstBugBudget = 5000;

  Options O;
  uint64_t Budget = 400;
  std::vector<Kernel> Kernels;
  std::vector<double> SchedulesV, DistinctRatio, DeadlocksV, ToBugV,
      InterpRates;
};

} // namespace

std::unique_ptr<Workload> makeExploreSuite(const Options &O) {
  return std::make_unique<ExploreSuite>(O);
}

} // namespace lb
