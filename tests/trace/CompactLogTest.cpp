//===- tests/trace/CompactLogTest.cpp - LIGHT003 format suite --------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// The compressed LIGHT003 container, the one format the program writes,
/// against the golden logs of tests/GoldenLogs.h: the legacy LIGHT001 and
/// LIGHT002 logs of one run load to the same recording, which re-saves as
/// LIGHT003 losslessly; the recorder still writes the golden LIGHT003
/// bytes; the varint encoding is strictly smaller than LIGHT001; cutting
/// the LIGHT002 log at a segment boundary or a LIGHT003 epoch log at any
/// word boundary salvages a clean span prefix; the epoch recorder's stream
/// decodes to the same spans the in-memory finish() log holds; and an
/// overflowing log is refused before any file exists.
///
//===----------------------------------------------------------------------===//

#include "../GoldenLogs.h"
#include "../TestPrograms.h"
#include "obs/Metrics.h"
#include "support/BinaryIO.h"
#include "trace/SegmentReader.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

using namespace light;
using namespace light::testprogs;

namespace {

void expectSameLog(const RecordingLog &A, const RecordingLog &B) {
  ASSERT_EQ(A.Spans.size(), B.Spans.size());
  for (size_t I = 0; I < A.Spans.size(); ++I)
    EXPECT_EQ(A.Spans[I], B.Spans[I]) << "span " << I;
  ASSERT_EQ(A.Syscalls.size(), B.Syscalls.size());
  for (size_t I = 0; I < A.Syscalls.size(); ++I) {
    EXPECT_EQ(A.Syscalls[I].Thread, B.Syscalls[I].Thread);
    EXPECT_EQ(A.Syscalls[I].Value, B.Syscalls[I].Value);
  }
  ASSERT_EQ(A.Spawns.size(), B.Spawns.size());
  for (size_t I = 0; I < A.Spawns.size(); ++I) {
    EXPECT_EQ(A.Spawns[I].Parent, B.Spawns[I].Parent);
    EXPECT_EQ(A.Spawns[I].SpawnIndex, B.Spawns[I].SpawnIndex);
    EXPECT_EQ(A.Spawns[I].Child, B.Spawns[I].Child);
  }
  EXPECT_EQ(A.FinalCounters, B.FinalCounters);
  EXPECT_EQ(A.Guards.Exact, B.Guards.Exact);
  EXPECT_EQ(A.Guards.FieldIndices, B.Guards.FieldIndices);
  EXPECT_EQ(A.Guards.GlobalIds, B.Guards.GlobalIds);
}

/// Same recording up to the order in which threads' spans and syscalls
/// interleave: an epoch log flushes per thread, finish() merges by thread.
void expectSameStreams(const RecordingLog &A, const RecordingLog &B) {
  auto SpansOf = [](const RecordingLog &Log) {
    std::map<ThreadId, std::vector<DepSpan>> By;
    for (const DepSpan &S : Log.Spans)
      By[S.Thread].push_back(S);
    return By;
  };
  auto CallsOf = [](const RecordingLog &Log) {
    std::map<ThreadId, std::vector<uint64_t>> By;
    for (const SyscallRecord &R : Log.Syscalls)
      By[R.Thread].push_back(R.Value);
    return By;
  };
  EXPECT_EQ(SpansOf(A), SpansOf(B));
  EXPECT_EQ(CallsOf(A), CallsOf(B));
  RecordingLog NoStreams = A, OtherNoStreams = B;
  NoStreams.Spans.clear();
  NoStreams.Syscalls.clear();
  OtherNoStreams.Spans.clear();
  OtherNoStreams.Syscalls.clear();
  expectSameLog(NoStreams, OtherNoStreams);
}

uint64_t fileWords(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return 0;
  std::fseek(F, 0, SEEK_END);
  long Size = std::ftell(F);
  std::fclose(F);
  return Size < 0 ? 0 : static_cast<uint64_t>(Size) / 8;
}

/// Records a multi-segment epoch log to \p Path and returns the in-memory
/// finish() log.
RecordingLog recordEpochs(const std::string &Path, uint64_t Seed) {
  LightOptions Opts;
  Opts.EpochSpans = 4; // several tiny segments, not one big one
  Opts.DurableLogPath = Path;
  return recordRun(counterRace(3, 6), Seed, Opts).Log;
}

/// Writes the first \p N bytes of \p Bytes to \p Path.
void writePrefix(const std::string &Path,
                 const std::vector<unsigned char> &Bytes, size_t N) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  if (N) {
    ASSERT_EQ(std::fwrite(Bytes.data(), 1, N, F), N);
  }
  std::fclose(F);
}

} // namespace

TEST(CompactLog, AllThreeFormatsLoadTheSameLog) {
  RecordingLog V1, V2, V3;
  LogLoadReport R1, R2, R3;
  ASSERT_TRUE(V1.load(golden::path(golden::Light001), R1)) << R1.Error;
  EXPECT_EQ(R1.FormatVersion, 1u);
  ASSERT_TRUE(V2.load(golden::path(golden::Light002), R2)) << R2.Error;
  EXPECT_EQ(R2.FormatVersion, 2u);
  EXPECT_TRUE(R2.CleanClose);
  ASSERT_FALSE(V1.Spans.empty());
  ASSERT_FALSE(V1.Syscalls.empty());
  ASSERT_FALSE(V1.Spawns.empty());
  expectSameStreams(V1, V2);

  // Re-saving a legacy log writes LIGHT003, and nothing is lost.
  std::string P3 = makeTempPath("fmt3");
  ASSERT_GT(V1.saveCompact(P3), 0u);
  ASSERT_TRUE(V3.load(P3, R3)) << R3.Error;
  EXPECT_EQ(R3.FormatVersion, 3u);
  EXPECT_TRUE(R3.Error.empty());
  expectSameLog(V1, V3);
  std::remove(P3.c_str());
}

TEST(CompactLog, RecorderWritesTheGoldenLight003Bytes) {
  // The epoch recording of the golden run, made the way `light-replay
  // record TimedWait-Flake 1 <log> --epoch-spans 2` makes it, is
  // byte-identical to the committed LIGHT003 file.
  mir::Program Prog = golden::program();
  std::string Path = makeTempPath("golden3");
  LightOptions Opts;
  Opts.EpochSpans = 2;
  Opts.DurableLogPath = Path;
  LightRecorder Rec(Opts);
  Machine M(Prog, Rec);
  Rec.attachRegistry(&M.registry());
  M.seedEnvironment(golden::Seed ^ 0x5a5a);
  RandomScheduler Sched(golden::Seed);
  M.run(Sched);
  Rec.finish(&M.registry());
  std::vector<unsigned char> Golden =
      golden::bytes(golden::path(golden::Light003Epochs));
  ASSERT_FALSE(Golden.empty());
  EXPECT_EQ(golden::bytes(Path), Golden);
  std::remove(Path.c_str());
}

TEST(CompactLog, CompressedIsSmallerThanLight001) {
  // A LIGHT001 file is spaceLongs() + 1 words (the golden file pins that
  // in RecordingLog.SpaceAccountingCountsEverySection).
  RecordingLog Log = recordRunBursty(counterRace(4, 24), 11).Log;
  ASSERT_FALSE(Log.Spans.empty());
  std::string P3 = makeTempPath("zip3");
  ASSERT_GT(Log.saveCompact(P3), 0u);
  EXPECT_LT(fileWords(P3), Log.spaceLongs() + 1);
  std::remove(P3.c_str());

  RecordingLog Golden;
  ASSERT_TRUE(Golden.load(golden::path(golden::Light001)));
  ASSERT_GT(Golden.saveCompact(P3), 0u);
  EXPECT_LT(fileWords(P3), fileWords(golden::path(golden::Light001)));
  std::remove(P3.c_str());
}

TEST(CompactLog, Light002SalvagesAPrefixAtEverySegmentBoundary) {
  std::string Path = golden::path(golden::Light002);
  std::vector<unsigned char> Bytes = golden::bytes(Path);
  ASSERT_FALSE(Bytes.empty());
  RecordingLog Whole;
  ASSERT_TRUE(Whole.load(Path));

  // Walk the frames: [magic][N][meta] then N payload words per segment.
  // Cut at the start of every frame; the last one is the clean-close
  // marker, so that cut keeps every data segment but loses the close.
  std::vector<size_t> Boundaries;
  size_t Pos = 8;
  while (Pos + 24 <= Bytes.size()) {
    Boundaries.push_back(Pos);
    uint64_t N;
    std::memcpy(&N, Bytes.data() + Pos + 8, sizeof N);
    Pos += 24 + N * 8;
  }
  ASSERT_EQ(Pos, Bytes.size());
  ASSERT_EQ(Boundaries.size(), 7u) << "6 data segments and the close";

  std::string Cut = makeTempPath("light2-cut");
  for (size_t K = 0; K < Boundaries.size(); ++K) {
    SCOPED_TRACE("cut after " + std::to_string(K) + " segment(s)");
    writePrefix(Cut, Bytes, Boundaries[K]);
    RecordingLog Log;
    LogLoadReport Report;
    ASSERT_TRUE(Log.load(Cut, Report)) << Report.Error;
    EXPECT_EQ(Report.FormatVersion, 2u);
    EXPECT_FALSE(Report.CleanClose);
    EXPECT_EQ(Report.SegmentsRecovered, K);
    ASSERT_LE(Log.Spans.size(), Whole.Spans.size());
    for (size_t I = 0; I < Log.Spans.size(); ++I)
      EXPECT_EQ(Log.Spans[I], Whole.Spans[I]) << "span " << I;
    if (K == Boundaries.size() - 1) {
      EXPECT_EQ(Log.Spans.size(), Whole.Spans.size());
    }
  }
  std::remove(Cut.c_str());
}

TEST(CompactLog, RecorderStreamMatchesFinish) {
  std::string Path = makeTempPath("light3-epochs");
  RecordingLog Mem = recordEpochs(Path, 5);
  ASSERT_FALSE(Mem.Spans.empty());

  TraceSegmentReader Reader(Path);
  ASSERT_TRUE(Reader.ok()) << Reader.report().Error;
  RecordingLog Streamed;
  size_t Segments = 0;
  while (Reader.next(Streamed))
    ++Segments;
  Reader.finish(Streamed);
  EXPECT_EQ(Reader.report().FormatVersion, 3u);
  EXPECT_TRUE(Reader.report().CleanClose);
  EXPECT_GT(Segments, 1u) << "epoch log should hold several segments";

  // The per-thread epoch flush reorders spans across threads but preserves
  // each thread's emission order; compare the per-thread subsequences.
  auto PerThread = [](const RecordingLog &Log) {
    std::map<ThreadId, std::vector<DepSpan>> By;
    for (const DepSpan &S : Log.Spans)
      By[S.Thread].push_back(S);
    return By;
  };
  auto A = PerThread(Mem), B = PerThread(Streamed);
  ASSERT_EQ(A.size(), B.size());
  for (auto &[T, Spans] : A) {
    ASSERT_EQ(Spans.size(), B[T].size()) << "thread " << T;
    for (size_t I = 0; I < Spans.size(); ++I)
      EXPECT_EQ(Spans[I], B[T][I]) << "thread " << T << " span " << I;
  }
  EXPECT_EQ(Mem.FinalCounters, Streamed.FinalCounters);
  std::remove(Path.c_str());
}

TEST(CompactLog, TruncationSalvagesASpanPrefixAtEveryWordBoundary) {
  std::string Path = makeTempPath("light3-full");
  RecordingLog Full = recordEpochs(Path, 9);
  uint64_t Words = fileWords(Path);
  ASSERT_GT(Words, 4u);

  std::vector<unsigned char> Bytes;
  {
    std::FILE *F = std::fopen(Path.c_str(), "rb");
    ASSERT_NE(F, nullptr);
    Bytes.resize(Words * 8);
    ASSERT_EQ(std::fread(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
    std::fclose(F);
  }

  std::string Cut = makeTempPath("light3-cut");
  for (uint64_t W = 0; W < Words; ++W) {
    SCOPED_TRACE("truncated to " + std::to_string(W) + " words");
    writePrefix(Cut, Bytes, W * 8);
    RecordingLog Log;
    LogLoadReport Report;
    if (!Log.load(Cut, Report)) {
      // Nothing decodable survived; the failure must be explained.
      EXPECT_FALSE(Report.Error.empty());
      continue;
    }
    EXPECT_FALSE(Report.CleanClose);
    EXPECT_TRUE(Report.Salvaged);
    // Whatever was salvaged is a prefix of the full stream's spans.
    ASSERT_LE(Log.Spans.size(), Full.Spans.size());
    // The full durable stream and the in-memory log interleave spans
    // differently, so compare against the stream order of the intact file.
    RecordingLog Whole;
    LogLoadReport WholeReport;
    ASSERT_TRUE(Whole.load(Path, WholeReport));
    for (size_t I = 0; I < Log.Spans.size(); ++I)
      EXPECT_EQ(Log.Spans[I], Whole.Spans[I]) << "span " << I;
  }
  std::remove(Cut.c_str());
  std::remove(Path.c_str());
}

TEST(CompactLog, CounterSaturationIsAStructuredOverflow) {
  // Saturate the access counter: the recorder must flag a structured
  // overflow instead of wrapping packed ids, and bump record.overflow.
  uint64_t Before =
      obs::Registry::global().counter("record.overflow").value();
  LightOptions Opts;
  LightRecorder Rec(Opts);
  Rec.debugSetCounter(0, MaxAccessCounter - 1);
  LocMeta Meta;
  bool Performed = false;
  for (int I = 0; I < 4; ++I)
    Rec.onWrite(0, loc::var(1), Meta, [&] { Performed = true; });
  EXPECT_TRUE(Performed) << "accesses must still perform, uninstrumented";
  EXPECT_TRUE(Rec.overflowed());
  EXPECT_FALSE(Rec.overflowError().empty());
  EXPECT_GT(obs::Registry::global().counter("record.overflow").value(),
            Before);
  Rec.finish();
}

TEST(CompactLog, OverflowingLogLeavesNoFile) {
  // A saturated access counter leaves a final counter past the wire width:
  // saveCompact() must refuse the log before creating the file, not leave
  // a header-only file that load() would salvage as an empty recording.
  LightRecorder Rec;
  Rec.debugSetCounter(0, MaxAccessCounter);
  LocMeta Meta;
  Rec.onWrite(0, loc::var(1), Meta, [] {});
  RecordingLog Log = Rec.finish();
  ASSERT_TRUE(Rec.overflowed());
  std::string Path = makeTempPath("light3-overflow");
  std::remove(Path.c_str());
  EXPECT_EQ(Log.saveCompact(Path), 0u);
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_EQ(F, nullptr) << "a refused log must leave no file";
  if (F)
    std::fclose(F);
}

TEST(CompactLog, UnwritablePathFails) {
  RecordingLog Log = recordRun(counterRace(2, 3), 4).Log;
  EXPECT_EQ(Log.saveCompact(makeTempPath("no-such-dir") + "/x.lightlog"), 0u);
}
