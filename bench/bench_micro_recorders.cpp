//===- bench/bench_micro_recorders.cpp - Per-op recorder costs -------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// Google-benchmark microbenchmarks of the per-access cost of each
/// recording scheme — the primitive quantities behind Figure 4. The
/// single-thread numbers isolate the synchronization-free fast paths
/// (Light's optimistic read vs. Leap/Stride's locked append); the
/// multi-thread numbers add real contention.
///
//===----------------------------------------------------------------------===//

#include "GBenchJson.h"

#include "baselines/LeapRecorder.h"
#include "baselines/StrideRecorder.h"
#include "core/LightRecorder.h"
#include "runtime/Runtime.h"

#include <benchmark/benchmark.h>

using namespace light;

namespace {

template <typename MakeHook> void runReadLoop(benchmark::State &State,
                                              MakeHook Make) {
  auto Hook = Make();
  Runtime RT(*Hook);
  SharedVar Var(/*Id=*/1, /*Initial=*/42);
  // One prior write so reads observe a real dependence source.
  Var.write(RT, 0, 7);
  int64_t Sink = 0;
  for (auto _ : State)
    Sink += Var.read(RT, 0);
  benchmark::DoNotOptimize(Sink);
}

template <typename MakeHook> void runWriteLoop(benchmark::State &State,
                                               MakeHook Make) {
  auto Hook = Make();
  Runtime RT(*Hook);
  SharedVar Var(/*Id=*/1);
  int64_t I = 0;
  for (auto _ : State)
    Var.write(RT, 0, ++I);
}

} // namespace

static void BM_Read_Baseline(benchmark::State &S) {
  runReadLoop(S, [] { return std::make_unique<NullHook>(); });
}
static void BM_Read_Light(benchmark::State &S) {
  runReadLoop(S, [] {
    return std::make_unique<LightRecorder>(LightOptions::both());
  });
}
static void BM_Read_LightBasic(benchmark::State &S) {
  runReadLoop(S, [] {
    return std::make_unique<LightRecorder>(LightOptions::basic());
  });
}
static void BM_Read_Light_NoTelemetry(benchmark::State &S) {
  runReadLoop(S, [] {
    LightOptions O = LightOptions::both();
    O.Telemetry = false;
    return std::make_unique<LightRecorder>(O);
  });
}
static void BM_Read_Leap(benchmark::State &S) {
  runReadLoop(S, [] { return std::make_unique<LeapRecorder>(); });
}
static void BM_Read_Stride(benchmark::State &S) {
  runReadLoop(S, [] { return std::make_unique<StrideRecorder>(); });
}

static void BM_Write_Baseline(benchmark::State &S) {
  runWriteLoop(S, [] { return std::make_unique<NullHook>(); });
}
static void BM_Write_Light(benchmark::State &S) {
  runWriteLoop(S, [] {
    return std::make_unique<LightRecorder>(LightOptions::both());
  });
}
static void BM_Write_Light_NoTelemetry(benchmark::State &S) {
  runWriteLoop(S, [] {
    LightOptions O = LightOptions::both();
    O.Telemetry = false;
    return std::make_unique<LightRecorder>(O);
  });
}
static void BM_Write_Leap(benchmark::State &S) {
  runWriteLoop(S, [] { return std::make_unique<LeapRecorder>(); });
}
static void BM_Write_Stride(benchmark::State &S) {
  runWriteLoop(S, [] { return std::make_unique<StrideRecorder>(); });
}

BENCHMARK(BM_Read_Baseline);
BENCHMARK(BM_Read_Light);
BENCHMARK(BM_Read_Light_NoTelemetry);
BENCHMARK(BM_Read_LightBasic);
BENCHMARK(BM_Read_Leap);
BENCHMARK(BM_Read_Stride);
BENCHMARK(BM_Write_Baseline);
BENCHMARK(BM_Write_Light);
BENCHMARK(BM_Write_Light_NoTelemetry);
BENCHMARK(BM_Write_Leap);
BENCHMARK(BM_Write_Stride);

LIGHT_GBENCH_MAIN("micro_recorders")
