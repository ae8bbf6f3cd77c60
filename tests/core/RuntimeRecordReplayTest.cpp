//===- tests/core/RuntimeRecordReplayTest.cpp - Real-thread replay ---------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// End-to-end record/replay over the *real-thread* runtime API (the
/// substrate the overhead benchmarks use): record a racy multi-threaded
/// kernel with LightRecorder, solve, then re-execute on real std::threads
/// under the blocking replay gate with validation on — every read must
/// observe the recorded source write even though the OS scheduler is free
/// to do anything.
///
//===----------------------------------------------------------------------===//

#include "core/LightRecorder.h"
#include "core/ReplayDirector.h"
#include "core/ReplaySchedule.h"
#include "runtime/Runtime.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <vector>

using namespace light;

namespace {

/// The kernel: each worker does mixed reads/writes over shared vars and a
/// locked section, recording every value it read into its own transcript.
struct Transcripts {
  std::vector<std::vector<int64_t>> PerThread{MaxThreads};
};

void kernel(Runtime &RT, ThreadId Self, uint64_t Seed, int Ops,
            std::vector<std::unique_ptr<SharedVar>> &Vars,
            InstrumentedMutex &Mu, SharedVar &GuardedVar,
            Transcripts &Out) {
  Rng R(Seed * 7919 + Self);
  for (int I = 0; I < Ops; ++I) {
    int V = static_cast<int>(R.below(Vars.size()));
    switch (R.below(3)) {
    case 0:
      Out.PerThread[Self].push_back(Vars[V]->read(RT, Self));
      break;
    case 1:
      Vars[V]->write(RT, Self, Self * 1000 + I);
      break;
    case 2: {
      InstrumentedGuard G(RT, Mu, Self);
      int64_t X = GuardedVar.read(RT, Self);
      Out.PerThread[Self].push_back(X);
      GuardedVar.write(RT, Self, X + 1);
      break;
    }
    }
  }
}

struct RunArtifacts {
  Transcripts Reads;
  RecordingLog Log;
  bool Diverged = false;
  std::string Error;
};

RunArtifacts recordReal(uint64_t Seed, int Threads, int Ops) {
  LightOptions Opts;
  LightRecorder Rec(Opts);
  Runtime RT(Rec);
  std::vector<std::unique_ptr<SharedVar>> Vars;
  for (int I = 0; I < 6; ++I)
    Vars.push_back(std::make_unique<SharedVar>(100 + I));
  InstrumentedMutex Mu(7);
  SharedVar Guarded(200);
  GuardSpec Guards;
  Guards.Exact.push_back(Guarded.location());
  Guards.seal();
  Rec.setGuards(std::move(Guards));

  RunArtifacts Out;
  std::vector<Runtime::Handle> Handles;
  for (int T = 0; T < Threads; ++T)
    Handles.push_back(RT.spawn(Runtime::MainThread, [&](ThreadId Self) {
      kernel(RT, Self, Seed, Ops, Vars, Mu, Guarded, Out.Reads);
    }));
  for (auto &H : Handles)
    RT.join(Runtime::MainThread, H);
  Out.Log = Rec.finish(&RT.registry());
  return Out;
}

RunArtifacts replayReal(const RecordingLog &Log, uint64_t Seed, int Threads,
                        int Ops) {
  ReplaySchedule Plan = ReplaySchedule::build(Log);
  EXPECT_TRUE(Plan.ok()) << Plan.error();

  ReplayDirector Director(Plan, /*RealThreads=*/true, /*Validate=*/true);
  Runtime RT(Director);
  RT.registry().loadForReplay(Log.Spawns);
  std::vector<std::unique_ptr<SharedVar>> Vars;
  for (int I = 0; I < 6; ++I)
    Vars.push_back(std::make_unique<SharedVar>(100 + I));
  InstrumentedMutex Mu(7);
  SharedVar Guarded(200);

  RunArtifacts Out;
  std::vector<Runtime::Handle> Handles;
  for (int T = 0; T < Threads; ++T)
    Handles.push_back(RT.spawn(Runtime::MainThread, [&](ThreadId Self) {
      kernel(RT, Self, Seed, Ops, Vars, Mu, Guarded, Out.Reads);
    }));
  for (auto &H : Handles)
    RT.join(Runtime::MainThread, H);
  Out.Diverged = Director.failed();
  Out.Error = Director.divergence();
  return Out;
}

} // namespace

TEST(RuntimeRecordReplay, RealThreadsReplayFaithfully) {
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    RunArtifacts Rec = recordReal(Seed, /*Threads=*/4, /*Ops=*/120);
    RunArtifacts Rep = replayReal(Rec.Log, Seed, 4, 120);
    ASSERT_FALSE(Rep.Diverged) << Rep.Error;
    // Theorem 1 on the runtime substrate: every thread read exactly the
    // same value sequence.
    for (size_t T = 0; T < MaxThreads; ++T)
      EXPECT_EQ(Rec.Reads.PerThread[T], Rep.Reads.PerThread[T])
          << "thread " << T << " diverged (seed " << Seed << ")";
  }
}

TEST(RuntimeRecordReplay, SchedulesDifferAcrossRecordings) {
  // Sanity: the OS actually produces different interleavings, so the
  // faithful replays above are nontrivial.
  bool AnyDifferent = false;
  RunArtifacts First = recordReal(99, 4, 200);
  for (int Round = 0; Round < 5 && !AnyDifferent; ++Round) {
    RunArtifacts Next = recordReal(99, 4, 200);
    if (Next.Reads.PerThread != First.Reads.PerThread)
      AnyDifferent = true;
  }
  // On a single-core host runs may serialize identically; accept either,
  // but record the observation.
  SUCCEED() << (AnyDifferent ? "schedules differ" : "host serialized runs");
}

TEST(RuntimeRecordReplay, LogIsSmall) {
  RunArtifacts Rec = recordReal(3, 4, 200);
  // Light's span log stays well under one long per access.
  uint64_t Accesses = 0;
  for (const Counter C : Rec.Log.FinalCounters)
    Accesses += C;
  EXPECT_LT(Rec.Log.spaceLongs(), Accesses);
}
