//===- tests/core/CrashToleranceTest.cpp ----------------------------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// End-to-end crash tolerance: a recorder running with the durable epoch
/// log (LightOptions::EpochSpans/EpochMs) is "crashed" mid-run via
/// crashFlush() — crash-handler semantics: pending sections flushed, no
/// clean-close marker, no finish() — and the salvaged LIGHT003 prefix must
/// solve and replay the original bug (Theorem 1 surviving a recorder
/// death). Also covers the clean-shutdown epoch path, CRC rejection of a
/// corrupted segment, and the golden LIGHT001/LIGHT002 logs still loading
/// and replaying.
///
//===----------------------------------------------------------------------===//

#include "../GoldenLogs.h"
#include "../TestPrograms.h"

#include "obs/Metrics.h"
#include "support/DurableLog.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>

using namespace light;
using namespace light::testprogs;

namespace {

/// Outcome of one epoch-durable recording that ended in crashFlush().
struct CrashedRecording {
  RunResult Result;     ///< the original (buggy) run
  std::string LogPath;  ///< the durable log left on disk
};

/// Finds a seed under which \p Prog fails, or nullopt.
std::optional<uint64_t> failingSeed(const mir::Program &Prog,
                                    uint64_t MaxSeeds = 200) {
  for (uint64_t Seed = 1; Seed <= MaxSeeds; ++Seed) {
    NullHook Null;
    Machine M(Prog, Null);
    M.seedEnvironment(Seed ^ 0x5a5a);
    RandomScheduler Sched(Seed);
    if (!M.run(Sched).Completed)
      return Seed;
  }
  return std::nullopt;
}

/// Records \p Prog under \p Seed with the durable epoch log armed, then
/// dies at the bug: crashFlush(), never finish().
CrashedRecording recordAndCrash(const mir::Program &Prog, uint64_t Seed,
                                size_t EpochSpans = 2) {
  CrashedRecording Out;
  Out.LogPath = makeTempPath("crashtol");
  LightOptions Opts;
  Opts.EpochSpans = EpochSpans;
  Opts.DurableLogPath = Out.LogPath;
  LightRecorder Rec(Opts);
  Machine M(Prog, Rec);
  Rec.attachRegistry(&M.registry());
  M.seedEnvironment(Seed ^ 0x5a5a);
  RandomScheduler Sched(Seed);
  Out.Result = M.run(Sched);
  EXPECT_TRUE(Rec.crashFlush());
  return Out;
}

TEST(CrashTolerance, SalvagedLogReproducesTheBug) {
  mir::Program Prog = racyNull();
  std::optional<uint64_t> Seed = failingSeed(Prog);
  ASSERT_TRUE(Seed) << "racyNull never failed; scheduler change?";

  uint64_t SalvagedBefore =
      obs::Registry::global().counter("log.segments.salvaged").value();
  CrashedRecording Crash = recordAndCrash(Prog, *Seed);
  ASSERT_FALSE(Crash.Result.Completed);

  RecordingLog Log;
  LogLoadReport Report;
  ASSERT_TRUE(Log.load(Crash.LogPath, Report)) << Report.Error;
  EXPECT_EQ(Report.FormatVersion, 3u);
  EXPECT_FALSE(Report.CleanClose);
  EXPECT_TRUE(Report.Salvaged);
  EXPECT_GT(Report.SegmentsRecovered, 0u);
  EXPECT_GT(obs::Registry::global().counter("log.segments.salvaged").value(),
            SalvagedBefore);

  // The salvaged prefix reproduces the bug exactly (Theorem 1).
  std::string Error;
  RunResult Replayed = replayRun(Prog, Log, smt::SolverEngine::Idl, &Error);
  ASSERT_NE(Replayed.Bug.What, BugReport::Kind::ReplayDivergence)
      << "replay diverged: " << Replayed.Bug.Detail << " " << Error;
  EXPECT_TRUE(Crash.Result.Bug.sameAs(Replayed.Bug))
      << "recorded: " << Crash.Result.Bug.str()
      << "\nreplayed: " << Replayed.Bug.str();
  std::remove(Crash.LogPath.c_str());
}

TEST(CrashTolerance, CleanEpochShutdownRoundTrips) {
  mir::Program Prog = lockedCounter(3, 4);
  std::string Path = makeTempPath("crashtol-clean");
  LightOptions Opts;
  Opts.EpochSpans = 2;
  Opts.DurableLogPath = Path;
  LightRecorder Rec(Opts);
  Machine M(Prog, Rec);
  Rec.attachRegistry(&M.registry());
  M.seedEnvironment(9 ^ 0x5a5a);
  RandomScheduler Sched(9);
  RunResult R = M.run(Sched);
  ASSERT_TRUE(R.Completed);
  RecordingLog InMemory = Rec.finish(&M.registry());

  RecordingLog FromDisk;
  LogLoadReport Report;
  ASSERT_TRUE(FromDisk.load(Path, Report)) << Report.Error;
  EXPECT_EQ(Report.FormatVersion, 3u);
  EXPECT_TRUE(Report.CleanClose);
  EXPECT_FALSE(Report.Salvaged);

  // The durable log carries the same recording finish() assembled.
  EXPECT_EQ(FromDisk.Spans.size(), InMemory.Spans.size());
  EXPECT_EQ(FromDisk.Syscalls.size(), InMemory.Syscalls.size());
  EXPECT_EQ(FromDisk.Spawns.size(), InMemory.Spawns.size());
  // Threads that never accessed shared state may drop off the end of the
  // durable counter table; every thread that did must match exactly.
  for (size_t T = 0; T < InMemory.FinalCounters.size(); ++T) {
    if (InMemory.FinalCounters[T] == 0)
      continue;
    ASSERT_LT(T, FromDisk.FinalCounters.size());
    EXPECT_EQ(FromDisk.FinalCounters[T], InMemory.FinalCounters[T])
        << "thread " << T;
  }

  // And it replays faithfully against the original outcome.
  std::string Error;
  RunResult Replayed = replayRun(Prog, FromDisk, smt::SolverEngine::Idl,
                                 &Error);
  EXPECT_TRUE(Replayed.Completed) << Replayed.Bug.str() << " " << Error;
  ASSERT_EQ(R.OutputByThread.size(), Replayed.OutputByThread.size());
  for (size_t I = 0; I < Replayed.OutputByThread.size(); ++I)
    EXPECT_EQ(R.OutputByThread[I], Replayed.OutputByThread[I]);
  std::remove(Path.c_str());
}

TEST(CrashTolerance, BitFlippedSegmentIsRejectedBySalvage) {
  mir::Program Prog = counterRace(3, 4);
  RecordOutcome Rec = recordRun(Prog, 5);
  std::string Path = makeTempPath("crashtol-flip");
  ASSERT_GT(Rec.Log.saveCompact(Path), 0u);

  // Corrupt one payload byte past the first segment frame; the CRC must
  // cut the log there instead of decoding garbage.
  std::FILE *F = std::fopen(Path.c_str(), "rb+");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(std::fseek(F, 5 * 8 + 3, SEEK_SET), 0);
  int Ch = std::fgetc(F);
  ASSERT_NE(Ch, EOF);
  ASSERT_EQ(std::fseek(F, -1, SEEK_CUR), 0);
  std::fputc(Ch ^ 0x40, F);
  std::fclose(F);

  RecordingLog Salvaged;
  LogLoadReport Report;
  // saveCompact writes a single data segment, so cutting it leaves an
  // empty (but loadable) log.
  ASSERT_TRUE(Salvaged.load(Path, Report)) << Report.Error;
  EXPECT_TRUE(Report.Salvaged);
  EXPECT_EQ(Report.SegmentsRecovered, 0u);
  EXPECT_EQ(Report.SegmentsDropped, 1u);
  EXPECT_TRUE(Salvaged.Spans.empty());
  std::remove(Path.c_str());
}

TEST(CrashTolerance, DurableSaveRoundTripsExactly) {
  // The golden LIGHT002 epoch log — the durable format earlier recorders
  // wrote — loads cleanly, matches the golden LIGHT001 log of the same run,
  // and replays it faithfully.
  mir::Program Prog = golden::program();
  RecordingLog Loaded, Reference;
  LogLoadReport Report;
  ASSERT_TRUE(Loaded.load(golden::path(golden::Light002), Report))
      << Report.Error;
  EXPECT_EQ(Report.FormatVersion, 2u);
  EXPECT_TRUE(Report.CleanClose);
  EXPECT_FALSE(Report.Salvaged);
  EXPECT_EQ(Report.SegmentsRecovered, 6u);
  ASSERT_TRUE(Reference.load(golden::path(golden::Light001)));
  EXPECT_EQ(Loaded.Spans.size(), Reference.Spans.size());
  EXPECT_EQ(Loaded.Syscalls.size(), Reference.Syscalls.size());
  EXPECT_EQ(Loaded.Spawns.size(), Reference.Spawns.size());
  EXPECT_EQ(Loaded.FinalCounters, Reference.FinalCounters);
  expectFaithfulReplay(Prog, {golden::run(Prog), Loaded});
}

TEST(CrashTolerance, Light001BackCompat) {
  // A log written by the legacy single-shot writer must keep loading
  // unchanged, and replay the run it recorded.
  mir::Program Prog = golden::program();
  RecordingLog Loaded;
  LogLoadReport Report;
  ASSERT_TRUE(Loaded.load(golden::path(golden::Light001), Report))
      << Report.Error;
  EXPECT_EQ(Report.FormatVersion, 1u);
  EXPECT_FALSE(Report.Salvaged);
  EXPECT_EQ(Loaded.Spans.size(), 12u);
  EXPECT_EQ(Loaded.Syscalls.size(), 1u);
  EXPECT_EQ(Loaded.Spawns.size(), 2u);
  EXPECT_EQ(Loaded.FinalCounters.size(), 3u);
  expectFaithfulReplay(Prog, {golden::run(Prog), Loaded});
}

TEST(CrashTolerance, InterpThreadCrashFaultReportsARuntimeError) {
  fault::Injector &In = fault::Injector::global();
  ASSERT_EQ(In.configure("interp.thread_crash=5"), "");
  mir::Program Prog = lockedCounter(2, 4);
  NullHook Null;
  Machine M(Prog, Null);
  M.seedEnvironment(1 ^ 0x5a5a);
  RandomScheduler Sched(1);
  RunResult R = M.run(Sched);
  In.reset();
  ASSERT_FALSE(R.Completed);
  EXPECT_EQ(R.Bug.What, BugReport::Kind::RuntimeError);
  EXPECT_NE(R.Bug.Detail.find("interp.thread_crash"), std::string::npos);
}

TEST(CrashTolerance, SalvageTruncateFaultDropsTailSegments) {
  // ci.salvage_truncate simulates a shorter surviving prefix at load time:
  // the last N segments (companion param ci.salvage_truncate_segments) are
  // discarded and the load is downgraded to a salvage. The CI pipeline
  // uses this to test its degraded verdicts without real disk damage.
  mir::Program Prog = lockedCounter(3, 6);
  std::string Path = makeTempPath("crashtol-truncfault");
  LightOptions Opts;
  Opts.EpochSpans = 2;
  Opts.DurableLogPath = Path;
  LightRecorder Rec(Opts);
  Machine M(Prog, Rec);
  Rec.attachRegistry(&M.registry());
  M.seedEnvironment(1 ^ 0x5a5a);
  RandomScheduler Sched(1);
  M.run(Sched);
  Rec.finish(&M.registry());

  RecordingLog Whole;
  LogLoadReport WholeReport;
  ASSERT_TRUE(Whole.load(Path, WholeReport)) << WholeReport.Error;
  ASSERT_TRUE(WholeReport.CleanClose);
  ASSERT_GT(WholeReport.SegmentsRecovered, 1u);

  fault::Injector &In = fault::Injector::global();
  ASSERT_EQ(In.configure(
                "ci.salvage_truncate=1,ci.salvage_truncate_segments=1"),
            "");
  RecordingLog Cut;
  LogLoadReport CutReport;
  ASSERT_TRUE(Cut.load(Path, CutReport)) << CutReport.Error;
  In.reset();
  EXPECT_FALSE(CutReport.CleanClose);
  EXPECT_TRUE(CutReport.Salvaged);
  EXPECT_EQ(CutReport.SegmentsRecovered + 1, WholeReport.SegmentsRecovered);
  EXPECT_LE(Cut.Spans.size(), Whole.Spans.size());
  std::remove(Path.c_str());
}

} // namespace
