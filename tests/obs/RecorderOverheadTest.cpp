//===- tests/obs/RecorderOverheadTest.cpp ----------------------------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// Guards the telemetry hot-path budget: recording with telemetry enabled
/// (the default) must stay close to recording with it disabled. The design
/// target is <= 1% (per-thread plain counters published only at finish();
/// the only added hot-path work is the lock-bit contention tally) —
/// the assertion bound is deliberately loose so scheduler noise on shared CI
/// hosts cannot flake the suite, while a real regression (a registry atomic
/// or lock on the access path) still trips it.
///
//===----------------------------------------------------------------------===//

#include "core/LightRecorder.h"
#include "runtime/Runtime.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>

using namespace light;

namespace {

/// Wall time for Ops write+read pairs against a fresh recorder.
double trialSeconds(bool Telemetry, int Ops) {
  LightOptions O = LightOptions::both();
  O.WriteToDisk = false;
  O.Telemetry = Telemetry;
  LightRecorder Rec(O);
  Runtime RT(Rec);
  SharedVar Var(/*Id=*/1, /*Initial=*/0);
  int64_t Sink = 0;
  auto Start = std::chrono::steady_clock::now();
  for (int I = 0; I < Ops; ++I) {
    Var.write(RT, 0, I);
    Sink += Var.read(RT, 0);
  }
  auto End = std::chrono::steady_clock::now();
  // Keep the loop observable.
  if (Sink == 42)
    std::abort();
  return std::chrono::duration<double>(End - Start).count();
}

} // namespace

TEST(RecorderOverhead, TelemetryStaysWithinBudget) {
  constexpr int Pairs = 9;
  constexpr int Ops = 150000;
  // Warm up allocators and caches once, untimed.
  trialSeconds(false, Ops / 10);
  trialSeconds(true, Ops / 10);

  // Off/on run back-to-back in each pair, so machine load (the suite runs
  // under a parallel ctest) hits both sides alike; the minimum pair ratio
  // is the quietest window's verdict.
  double BestRatio = 1e9;
  for (int P = 0; P < Pairs; ++P) {
    double Off = trialSeconds(false, Ops);
    double On = trialSeconds(true, Ops);
    ASSERT_GT(Off, 0.0);
    BestRatio = std::min(BestRatio, On / Off);
  }

  RecordProperty("telemetry_ratio", std::to_string(BestRatio));
  // Design budget is 1.01x; 1.5x is the flake-proof tripwire (a registry
  // lock or shared atomic on the access path costs far more than this).
  EXPECT_LT(BestRatio, 1.5) << "telemetry-on/off best ratio " << BestRatio;
}
