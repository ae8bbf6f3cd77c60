//===- examples/cache4j_demo.cpp - The paper's running example -------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// Section 2's walk-through on the Cache4j fragment of Figure 1/2:
/// thread t1 executes put(...) in bursts, thread t2 executes get(...) in
/// bursts. The demo shows the three headline mechanisms:
///
///   * tight recording: only flow dependences are logged — compare the
///     span count against the access count (Leap's vector would store
///     every access);
///   * the prec/O1 compression: bursts of reads of one write collapse
///     into single spans (the (t1,10) -> (t2,1) arrow of Figure 2);
///   * bug reproduction: the torn put() observed by get() replays with
///     the identical illegal value.
///
//===----------------------------------------------------------------------===//

#include "bugs/BugHarness.h"
#include "bugs/BugPrograms.h"
#include "core/LightRecorder.h"
#include "interp/Machine.h"

#include <cstdio>

using namespace light;
using namespace light::bugs;

int main() {
  std::vector<BugBenchmark> Suite = makeBugSuite();
  const BugBenchmark &Cache4j = Suite[0];

  // A bursty, clean run first: show the recording economics of Figure 2.
  {
    LightOptions Opts;
    LightRecorder Recorder(Opts);
    Machine M(Cache4j.Prog, Recorder);
    BurstScheduler Sched(/*Seed=*/5, /*MaxBurstLen=*/64);
    RunResult R = M.run(Sched);
    RecordingLog Log = Recorder.finish(&M.registry());
    std::printf("--- bursty run (Figure 2 pattern) ---\n");
    std::printf("shared accesses:        %llu\n",
                static_cast<unsigned long long>(R.SharedAccesses));
    std::printf("dependence spans:       %zu\n", Log.Spans.size());
    std::printf("long-integers (Light):  %llu\n",
                static_cast<unsigned long long>(Log.spaceLongs()));
    std::printf("long-integers (a Leap-style access vector would need "
                "%llu)\n\n",
                static_cast<unsigned long long>(R.SharedAccesses));
  }

  // Now the bug: find a failing schedule, record, solve, replay.
  std::optional<uint64_t> Seed = findBuggySeed(Cache4j.Prog, 300);
  if (!Seed) {
    std::printf("no failing schedule found\n");
    return 1;
  }
  std::printf("--- the Cache4j bug (seed %llu) ---\n",
              static_cast<unsigned long long>(*Seed));
  ToolAttempt A = lightReproduce(Cache4j, *Seed);
  std::printf("bug manifested:   %s\n", A.BugFound ? "yes" : "no");
  std::printf("space:            %llu long-integers\n",
              static_cast<unsigned long long>(A.SpaceLongs));
  std::printf("solve time:       %.2f ms\n", A.SolveSeconds * 1000);
  std::printf("replay time:      %.2f ms\n", A.ReplaySeconds * 1000);
  std::printf("bug reproduced:   %s%s\n", A.Reproduced ? "YES" : "NO",
              A.Note.empty() ? "" : (" (" + A.Note + ")").c_str());
  return A.Reproduced ? 0 : 1;
}
