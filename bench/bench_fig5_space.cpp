//===- bench/bench_fig5_space.cpp - Figure 5 + space table -----------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Figure 5 — space consumption in K long-integer units of
/// Light vs. Leap vs. Stride over the 24 benchmarks — plus the aggregate
/// space table of Section 5.2 (paper: Leap avg 94,362K, Stride 135,570K,
/// Light 9,429K; i.e. Light at ~10% of Leap).
///
/// Space depends on how finely the workers interleave, not on timing, so
/// every run here is pinned to one CPU (support/Affinity.h): the same
/// time-sliced regime on every host, the one the paper's shapes were
/// calibrated on.
///
/// Pass a benchmark name to run only that benchmark; pass --json [file] to
/// also write a light-bench-v1 report.
///
//===----------------------------------------------------------------------===//

#include "obs/Args.h"
#include "obs/BenchReport.h"
#include "support/Affinity.h"
#include "support/Statistics.h"
#include "support/Table.h"
#include "workloads/OverheadHarness.h"

#include <cstdio>
#include <string>

using namespace light;
using namespace light::workloads;

int main(int argc, char **argv) {
  obs::ArgList Args(argc, argv, {"json"}, {});
  std::string Only = Args.positionalOr(0, "");

  std::printf("Figure 5: space consumption (K long-integer units recorded)\n");
  std::printf("Paper reference: Light records ~10%% of Leap's volume on "
              "average.\n\n");

  Table T({"benchmark", "suite", "light (K)", "light3 (K)", "leap (K)",
           "stride (K)", "light/leap", "light3 zip"});
  std::vector<double> LightK, Light3K, LeapK, StrideK, Zip;
  obs::BenchReport Report("fig5_space");
  bool Pinned = true;

  for (const WorkloadSpec &Spec : paperWorkloads()) {
    if (!Only.empty() && Spec.Name != Only)
      continue;
    Measurement L, P, S;
    {
      OneCpu Pin;
      Pinned &= Pin.ok();
      L = runWorkload(Spec, Scheme::Light);
      P = runWorkload(Spec, Scheme::Leap);
      S = runWorkload(Spec, Scheme::Stride);
    }
    double LK = L.SpaceLongs / 1000.0;
    double L3K = L.CompactLongs / 1000.0;
    double PK = P.SpaceLongs / 1000.0;
    double SK = S.SpaceLongs / 1000.0;
    LightK.push_back(LK);
    Light3K.push_back(L3K);
    LeapK.push_back(PK);
    StrideK.push_back(SK);
    // Compression of the identical log: LIGHT001 longs / LIGHT003 longs.
    Zip.push_back(L3K > 0 ? LK / L3K : 0);
    T.addRow({Spec.Name, Spec.Suite, Table::fmt(LK, 1), Table::fmt(L3K, 1),
              Table::fmt(PK, 1), Table::fmt(SK, 1), Table::fmt(LK / PK, 3),
              Table::fmt(Zip.back(), 1) + "x"});
    Report.row()
        .set("benchmark", Spec.Name)
        .set("suite", Spec.Suite)
        .set("light_klongs", LK)
        .set("light003_klongs", L3K)
        .set("leap_klongs", PK)
        .set("stride_klongs", SK)
        .set("light003_compression", Zip.back());
    std::fflush(stdout);
  }
  std::printf("Regime: %s\n",
              Pinned ? "workers pinned to one CPU (time-sliced)"
                     : "UNPINNED (could not set the CPU affinity)");
  std::printf("%s\n", T.render().c_str());

  Table Agg({"statistic", "leap (K)", "stride (K)", "light (K)",
             "paper leap", "paper stride", "paper light"});
  Summary SL = summarize(LightK), SP = summarize(LeapK),
          SS = summarize(StrideK);
  Agg.addRow({"average", Table::fmt(SP.Average, 1), Table::fmt(SS.Average, 1),
              Table::fmt(SL.Average, 1), "94,362", "135,570", "9,429"});
  Agg.addRow({"median", Table::fmt(SP.Median, 1), Table::fmt(SS.Median, 1),
              Table::fmt(SL.Median, 1), "22,904", "34,566", "1,461"});
  Agg.addRow({"minimum", Table::fmt(SP.Minimum, 1), Table::fmt(SS.Minimum, 1),
              Table::fmt(SL.Minimum, 1), "21", "30", "1"});
  Agg.addRow({"maximum", Table::fmt(SP.Maximum, 1), Table::fmt(SS.Maximum, 1),
              Table::fmt(SL.Maximum, 1), "959,783", "1,394,378", "69,559"});
  std::printf("Section 5.2 aggregate space table:\n%s\n", Agg.render().c_str());

  double Ratio = SL.Average / SP.Average;
  std::printf("Average Light/Leap space ratio: %.3f (paper: ~0.10)\n", Ratio);
  bool ShapeHolds = SL.Average < SP.Average && SL.Average < SS.Average;
  std::printf("Shape check (Light far below both baselines): %s\n",
              ShapeHolds ? "HOLDS" : "VIOLATED");
  Summary SZ = summarize(Zip);
  std::printf("LIGHT003 compression vs LIGHT001 (worst workload): %.2fx -> "
              ">=3x %s\n",
              SZ.Minimum, SZ.Minimum >= 3.0 ? "HOLDS" : "VIOLATED");
  bool Compresses = SZ.Minimum >= 3.0;

  if (Args.has("json")) {
    Report.aggregate("light_avg_klongs", SL.Average);
    Report.aggregate("light003_avg_klongs", summarize(Light3K).Average);
    Report.aggregate("leap_avg_klongs", SP.Average);
    Report.aggregate("stride_avg_klongs", SS.Average);
    Report.aggregate("light_leap_ratio", Ratio);
    Report.aggregate("light003_compression_min", SZ.Minimum);
    Report.ok(ShapeHolds && Compresses);
    Report.withMetrics();
    if (!Report.write(Args.get("json")))
      return 1;
  }
  if (!Only.empty())
    return 0;
  return ShapeHolds && Compresses ? 0 : 1;
}
