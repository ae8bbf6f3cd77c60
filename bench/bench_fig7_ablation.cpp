//===- bench/bench_fig7_ablation.cpp - Figure 7 (H3 ablation) --------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Figure 7: the contribution of optimization O1 (uninterleaved
/// sequence spans, Lemma 4.3) and O2 (lock-subsumption, Lemma 4.2) to
/// Light's time overhead (7a) and space (7b), measured as the three
/// recorder versions V_basic, V_O1, V_both over the 24 benchmarks.
///
/// The paper reports (time) O1 >= 20% reduction on 20/24 benchmarks and
/// (space) O1 >= 50% reduction on 16/24; O2 contributes mostly on the
/// lock-heavy (STAMP/server) profiles.
///
/// Space depends on how finely the workers interleave, not on timing, so
/// the 7b space runs are pinned to one CPU (support/Affinity.h): the same
/// time-sliced regime on every host. The 7a time runs stay unpinned.
///
//===----------------------------------------------------------------------===//

#include "obs/Args.h"
#include "obs/BenchReport.h"
#include "support/Affinity.h"
#include "support/Statistics.h"
#include "support/Table.h"
#include "workloads/OverheadHarness.h"

#include <algorithm>
#include <cstdio>

using namespace light;
using namespace light::workloads;

int main(int argc, char **argv) {
  obs::ArgList Args(argc, argv, {"json"}, {"fast"});
  int Repeats = Args.has("fast") ? 1 : 2;

  std::printf("Figure 7a/7b: overhead breakdown across V_basic, V_O1, "
              "V_both\n\n");

  Table T({"benchmark", "time basic", "time +O1", "time +O2(both)",
           "space basic(K)", "space +O1(K)", "space both(K)"});

  int TimeO1Wins = 0, SpaceO1Big = 0, SpaceO2Helps = 0, N = 0;
  bool SpacePinned = true;
  obs::BenchReport Report("fig7_ablation");
  for (const WorkloadSpec &Spec : paperWorkloads()) {
    double TB = measureOverhead(Spec, Scheme::LightBasic, Repeats) - 1.0;
    double TO1 = measureOverhead(Spec, Scheme::LightO1, Repeats) - 1.0;
    double TBoth = measureOverhead(Spec, Scheme::Light, Repeats) - 1.0;
    Measurement SB, SO1, SBoth;
    {
      OneCpu Pin;
      SpacePinned &= Pin.ok();
      SB = runWorkload(Spec, Scheme::LightBasic);
      SO1 = runWorkload(Spec, Scheme::LightO1);
      SBoth = runWorkload(Spec, Scheme::Light);
    }

    TB = std::max(TB, 0.0);
    TO1 = std::max(TO1, 0.0);
    TBoth = std::max(TBoth, 0.0);

    ++N;
    if (TO1 <= TB)
      ++TimeO1Wins;
    if (SO1.SpaceLongs * 2 <= SB.SpaceLongs)
      ++SpaceO1Big; // >= 50% reduction
    if (SBoth.SpaceLongs < SO1.SpaceLongs)
      ++SpaceO2Helps;

    T.addRow({Spec.Name, Table::fmt(TB), Table::fmt(TO1), Table::fmt(TBoth),
              Table::fmt(SB.SpaceLongs / 1000.0, 1),
              Table::fmt(SO1.SpaceLongs / 1000.0, 1),
              Table::fmt(SBoth.SpaceLongs / 1000.0, 1)});
    Report.row()
        .set("benchmark", Spec.Name)
        .set("time_basic", TB)
        .set("time_o1", TO1)
        .set("time_both", TBoth)
        .set("space_basic_longs", static_cast<double>(SB.SpaceLongs))
        .set("space_o1_longs", static_cast<double>(SO1.SpaceLongs))
        .set("space_both_longs", static_cast<double>(SBoth.SpaceLongs));
    std::fflush(stdout);
  }
  std::printf("Regime: time columns unpinned; space columns %s\n",
              SpacePinned ? "pinned to one CPU (time-sliced workers)"
                          : "UNPINNED (could not set the CPU affinity)");
  std::printf("%s\n", T.render().c_str());

  std::printf("H3 shape checks:\n");
  std::printf("  time:  V_O1 <= V_basic on %d/%d benchmarks (paper: O1 "
              "helps nearly everywhere)\n",
              TimeO1Wins, N);
  std::printf("  space: O1 cuts >= 50%% on %d/%d (paper: 16/24)\n",
              SpaceO1Big, N);
  std::printf("  space: O2 reduces further on %d/%d (paper: 6/24 by >= "
              "20%%, lock-heavy suites)\n",
              SpaceO2Helps, N);
  bool Holds = SpaceO1Big > N / 2 && SpaceO2Helps > 0;
  std::printf("H3 (both optimizations significant): %s\n",
              Holds ? "HOLDS" : "VIOLATED");

  if (Args.has("json")) {
    Report.aggregate("time_o1_wins", TimeO1Wins);
    Report.aggregate("space_o1_big", SpaceO1Big);
    Report.aggregate("space_o2_helps", SpaceO2Helps);
    Report.aggregate("benchmarks", N);
    Report.ok(Holds);
    Report.withMetrics();
    if (!Report.write(Args.get("json")))
      return 1;
  }
  return Holds ? 0 : 1;
}
