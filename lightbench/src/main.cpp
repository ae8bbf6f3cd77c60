//===- lightbench/src/main.cpp - Whole-pipeline benchmark entry point -----===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// lightbench --workload W --seed N --seconds S --trace 0|1
///            [--tiny] [--negative-control] [--work-dir D] [--spans-out F]
///            [--size N]
///
/// Runs one workload (record-mt, reproduce-dense, stream-scale,
/// explore-suite; see README.md): runs measured units of work for S
/// seconds, times its set-up up to 15 times spread over that span, checks
/// every output, and prints each metric with its unit and sample count.
/// The last line of stdout is the JSON result: {"correct", "attempted",
/// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end set;
/// with --trace 1 the run spends half the time untraced and half traced and
/// prints the per-layer set, including the tracing overhead.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "obs/Args.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <unistd.h>

using namespace lb;

namespace {

// Set-up runs once before measuring and again at evenly spaced points of
// the measured time, so its median samples the whole run rather than the
// first instant of it.
constexpr size_t SetupRuns = 15;
constexpr size_t MinIterations = 3;

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

// Keep in sync with BENCHMARK.json (the self-test compares them).
const MetricSpec PerLayer[] = {
    {"runtime.null_maccess_per_s", "Maccess/s"},
    {"core.recorder.overhead_x", "x"},
    {"core.recorder.read_retries_per_maccess", "1/Maccess"},
    {"core.recorder.stripe_contentions_per_maccess", "1/Maccess"},
    {"core.recorder.finish_s", "s"},
    {"core.recorder.spans_per_kaccess", "1/kaccess"},
    {"trace.log_bytes_per_access", "B"},
    {"trace.encode_mb_per_s", "MB/s"},
    {"trace.compression_x", "x"},
    {"trace.decode_s", "s"},
    {"trace.segments", "count"},
    {"core.constraint.build_s", "s"},
    {"core.constraint.vars", "count"},
    {"core.constraint.clauses", "count"},
    {"core.constraint.components", "count"},
    {"smt.solve_s", "s"},
    {"smt.decisions", "count"},
    {"smt.conflicts", "count"},
    {"smt.propagations", "count"},
    {"smt.scan_steps", "count"},
    {"smt.cycle_checks", "count"},
    {"smt.shards", "count"},
    {"smt.conflicts_per_decision", "ratio"},
    {"core.windowed.solve_s", "s"},
    {"core.windowed.windows", "count"},
    {"core.windowed.window_ms_p50", "ms"},
    {"core.windowed.late_vs_early_x", "x"},
    {"core.windowed.too_small", "count"},
    {"core.replay.run_s", "s"},
    {"core.replay.turns", "count"},
    {"core.replay.stalls", "count"},
    {"core.replay.validated_reads", "count"},
    {"interp.minstr_per_s", "Minstr/s"},
    {"explore.schedules", "count"},
    {"explore.distinct_ratio", "ratio"},
    {"explore.deadlocks", "count"},
    {"explore.schedules_to_bug", "count"},
    {"analysis.lockset_s", "s"},
    {"obs.tracing_overhead_x.throughput_per_s", "x"},
    {"obs.tracing_overhead_x.latency_s", "x"},
};

double timedSetup(Workload &W) {
  Clock::time_point T0 = Clock::now();
  W.setup();
  return secondsSince(T0);
}

/// Runs units of work for \p Seconds (at least MinIterations), re-running
/// the set-up at the evenly spaced points SetupTimes still lacks.
std::vector<Sample> runFor(Workload &W, Checks &C, double Seconds,
                           bool Traced, std::vector<double> &SetupTimes) {
  std::vector<Sample> Out;
  Clock::time_point T0 = Clock::now();
  size_t Pending = SetupRuns - SetupTimes.size();
  size_t Done = 0;
  while (Out.size() < MinIterations || secondsSince(T0) < Seconds) {
    SpanLog::get().setOn(Traced);
    Out.push_back(W.iterate(C, Traced));
    SpanLog::get().setOn(false);
    if (Done < Pending &&
        secondsSince(T0) >= Seconds * static_cast<double>(Done + 1) /
                                static_cast<double>(Pending + 1)) {
      SetupTimes.push_back(timedSetup(W));
      ++Done;
    }
  }
  return Out;
}

/// A unit's throughput and latency.
struct Figures {
  double ThroughputPerS = 0;
  double LatencyS = 0;
};

Figures figures(const Sample &X, Combine How) {
  Figures F;
  if (How == Combine::Sum) {
    double Work = 0, Secs = 0;
    for (size_t I = 0; I < X.WorkSeconds.size(); ++I) {
      Work += X.WorkDone[I];
      Secs += X.WorkSeconds[I];
    }
    F.ThroughputPerS = Secs > 0 ? Work / Secs : 0;
    for (double L : X.LatencySeconds)
      F.LatencyS += L;
    return F;
  }
  std::vector<double> Rates;
  for (size_t I = 0; I < X.WorkSeconds.size(); ++I)
    Rates.push_back(X.WorkSeconds[I] > 0 ? X.WorkDone[I] / X.WorkSeconds[I]
                                         : 0);
  F.ThroughputPerS = median(Rates);
  F.LatencyS = median(X.LatencySeconds);
  return F;
}

// The end-to-end figures combine every item's best time in the run. On a
// shared host a core slows down by up to 1.7x in phases lasting from under
// a second to longer than a run, and interference only ever adds time, so
// an item's best time is its cost on an undisturbed core; items are short
// (milliseconds to a fraction of a second), so each meets an undisturbed
// phase in most runs. On a 4-vCPU shared VM, over 8 runs of 20 s of
// explore-suite, the spread (IQR / median across runs) of the latency was
// 0.34 for the per-run median of whole units, 0.24 for their mean and 0.10
// for the best unit; README.md has the numbers for the per-item bests.
// Units whose item counts differ from the first unit's (a pipeline that
// failed, which its failed check already reports) are left out.
Sample bestItems(const std::vector<Sample> &S) {
  Sample Best = S.front();
  for (const Sample &X : S) {
    if (X.WorkSeconds.size() != Best.WorkSeconds.size() ||
        X.LatencySeconds.size() != Best.LatencySeconds.size())
      continue;
    for (size_t I = 0; I < X.WorkSeconds.size(); ++I)
      Best.WorkSeconds[I] = std::min(Best.WorkSeconds[I], X.WorkSeconds[I]);
    for (size_t I = 0; I < X.LatencySeconds.size(); ++I)
      Best.LatencySeconds[I] =
          std::min(Best.LatencySeconds[I], X.LatencySeconds[I]);
    Best.PeakRssMb = std::max(Best.PeakRssMb, X.PeakRssMb);
  }
  return Best;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "lightbench: %s\nusage: lightbench --workload "
               "record-mt|reproduce-dense|stream-scale|explore-suite "
               "--seed N --seconds S --trace 0|1 [--tiny] "
               "[--negative-control] [--work-dir D] [--spans-out F] "
               "[--size N]\n",
               Why);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  light::obs::ArgList Args(
      argc, argv,
      {"workload", "seed", "seconds", "trace", "work-dir", "spans-out",
       "size"},
      {"tiny", "negative-control"});
  if (!Args.unknown().empty())
    return usage(("unknown flag " + Args.unknown().front()).c_str());

  Options O;
  O.Workload = Args.get("workload");
  try {
    O.Seed = std::stoull(Args.get("seed", "1"));
    O.Seconds = std::stod(Args.get("seconds", "10"));
    O.Size = std::stoull(Args.get("size", "0"));
  } catch (const std::exception &) {
    return usage("--seed, --seconds and --size take numbers");
  }
  std::string TraceArg = Args.get("trace", "0");
  if (TraceArg != "0" && TraceArg != "1")
    return usage("--trace takes 0 or 1");
  O.Trace = TraceArg == "1";
  O.Tiny = Args.has("tiny");
  O.NegativeControl = Args.has("negative-control");
  O.SpansOut = Args.get("spans-out");
  if (O.Seconds <= 0)
    return usage("--seconds must be positive");

  using Factory = std::unique_ptr<Workload> (*)(const Options &);
  const std::map<std::string, Factory> Workloads = {
      {"record-mt", makeRecordMt},
      {"reproduce-dense", makeReproduceDense},
      {"stream-scale", makeStreamScale},
      {"explore-suite", makeExploreSuite}};
  auto Make = Workloads.find(O.Workload);
  if (Make == Workloads.end())
    return usage(("unknown workload '" + O.Workload + "'").c_str());

  std::filesystem::path Base =
      Args.get("work-dir", ".lightbench-work", ".lightbench-work");
  std::filesystem::path Work =
      Base / (O.Workload + "-" + std::to_string(::getpid()));
  std::error_code Ec;
  std::filesystem::create_directories(Work, Ec);
  if (Ec)
    return usage(("cannot create work dir " + Work.string()).c_str());
  O.WorkDir = Work.string();
  std::unique_ptr<Workload> W = Make->second(O);

  std::printf("lightbench %s seed=%llu seconds=%g trace=%d%s%s\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0, O.Tiny ? " tiny" : "",
              O.NegativeControl ? " negative-control" : "");
  std::fflush(stdout);

  std::vector<double> SetupTimes = {timedSetup(*W)};

  Checks C;
  std::vector<Metric> Out;
  std::string Note;
  if (!O.Trace) {
    std::vector<Sample> S = runFor(*W, C, O.Seconds, false, SetupTimes);
    Sample Best = bestItems(S);
    Figures F = figures(Best, W->combine());
    Out.push_back({"setup_s", median(SetupTimes), "s", SetupTimes.size()});
    Out.push_back({"throughput_per_s", F.ThroughputPerS, "1/s", S.size()});
    Out.push_back({"latency_s", F.LatencyS, "s", S.size()});
    Out.push_back({"peak_rss_mb", Best.PeakRssMb, "MB", S.size()});
    std::vector<double> Tp, Lat;
    for (const Sample &X : S) {
      Figures U = figures(X, W->combine());
      Tp.push_back(U.ThroughputPerS);
      Lat.push_back(U.LatencyS);
    }
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "per-unit medians: throughput_per_s %.6g, latency_s %.6g "
                  "(n=%zu units)\n",
                  median(Tp), median(Lat), S.size());
    Note = Buf;
  } else {
    std::vector<Sample> Plain =
        runFor(*W, C, O.Seconds / 2, false, SetupTimes);
    std::vector<Sample> Traced =
        runFor(*W, C, O.Seconds / 2, true, SetupTimes);
    std::vector<Metric> Layer;
    W->layerMetrics(Layer);
    Figures P = figures(bestItems(Plain), W->combine());
    Figures T = figures(bestItems(Traced), W->combine());
    double TpRatio =
        T.ThroughputPerS > 0 ? P.ThroughputPerS / T.ThroughputPerS : 0;
    Layer.push_back({"obs.tracing_overhead_x.throughput_per_s", TpRatio, "x",
                     Traced.size()});
    Layer.push_back({"obs.tracing_overhead_x.latency_s",
                     P.LatencyS > 0 ? T.LatencyS / P.LatencyS : 0, "x",
                     Traced.size()});
    // Every per-layer metric is printed on every workload; a layer the
    // workload never calls reports 0 with 0 samples.
    std::map<std::string, Metric> ByName;
    for (Metric &M : Layer)
      ByName[M.Name] = M;
    for (const MetricSpec &Spec : PerLayer) {
      auto It = ByName.find(Spec.Name);
      Metric M = It != ByName.end() ? It->second
                                    : Metric{Spec.Name, 0, Spec.Unit, 0};
      M.Unit = Spec.Unit;
      Out.push_back(M);
    }
    if (!O.SpansOut.empty() && !SpanLog::get().write(O.SpansOut))
      C.expect(false, "could not write spans to " + O.SpansOut);
  }

  std::filesystem::remove_all(Work, Ec);
  std::filesystem::remove(Base, Ec); // only succeeds when empty

  std::printf("%-46s %18s  %-10s %s\n", "metric", "value", "unit",
              "samples");
  for (const Metric &M : Out)
    std::printf("%-46s %18.6g  %-10s n=%zu\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Samples);
  std::printf("%swork item: %s; latency: %s\n", Note.c_str(),
              W->itemName(), W->latencyName());
  std::printf("checks: %llu attempted, %llu failed (fail_rate %.6g over "
              "%llu checks)\n",
              static_cast<unsigned long long>(C.attempted()),
              static_cast<unsigned long long>(C.failed()),
              C.attempted() ? static_cast<double>(C.failed()) /
                                  static_cast<double>(C.attempted())
                            : 0.0,
              static_cast<unsigned long long>(C.attempted()));

  std::string Json = "{\"correct\": ";
  Json += C.failed() == 0 && C.attempted() > 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(C.attempted());
  Json += ", \"failed\": " + std::to_string(C.failed());
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < Out.size(); ++I) {
    Json += I ? ", " : "";
    Json += "\"" + Out[I].Name + "\": {\"value\": " +
            jsonNumber(Out[I].Value) + ", \"unit\": \"" + Out[I].Unit +
            "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
