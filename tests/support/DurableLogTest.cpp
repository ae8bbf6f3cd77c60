//===- tests/support/DurableLogTest.cpp -----------------------------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// The durable segmented container (support/DurableLog.h): framing,
/// CRC32C validation, clean-close detection, and salvage of torn or
/// corrupted logs — the storage layer under the crash-tolerant recorder.
///
//===----------------------------------------------------------------------===//

#include "support/DurableLog.h"

#include "support/BinaryIO.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

using namespace light;

namespace {

std::vector<uint64_t> payload(uint64_t Tag, size_t N) {
  std::vector<uint64_t> P;
  for (size_t I = 0; I < N; ++I)
    P.push_back(Tag * 1000 + I);
  return P;
}

/// Reads the raw bytes of \p Path.
std::vector<unsigned char> slurp(const std::string &Path) {
  std::vector<unsigned char> Bytes;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Bytes;
  unsigned char Buf[4096];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof Buf, F)) > 0)
    Bytes.insert(Bytes.end(), Buf, Buf + Got);
  std::fclose(F);
  return Bytes;
}

void spit(const std::string &Path, const std::vector<unsigned char> &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  std::fclose(F);
}

TEST(DurableLog, CleanRoundTrip) {
  std::string Path = makeTempPath("dlog");
  {
    DurableLogWriter W(Path);
    ASSERT_TRUE(W.ok()) << W.error();
    ASSERT_TRUE(W.writeSegment(payload(1, 5)));
    ASSERT_TRUE(W.writeSegment(payload(2, 1)));
    ASSERT_TRUE(W.writeSegment(payload(3, 17)));
    ASSERT_TRUE(W.closeClean());
  }
  SegmentScan Scan = scanDurableLog(Path);
  EXPECT_TRUE(Scan.HeaderOk);
  EXPECT_TRUE(Scan.Clean);
  ASSERT_EQ(Scan.Segments.size(), 3u);
  EXPECT_EQ(Scan.Segments[0], payload(1, 5));
  EXPECT_EQ(Scan.Segments[1], payload(2, 1));
  EXPECT_EQ(Scan.Segments[2], payload(3, 17));
  EXPECT_EQ(Scan.SegmentsDropped, 0u);
  EXPECT_EQ(Scan.WordsDropped, 0u);
  std::remove(Path.c_str());
}

TEST(DurableLog, AbandonedLogIsNotClean) {
  std::string Path = makeTempPath("dlog-abandon");
  {
    DurableLogWriter W(Path);
    ASSERT_TRUE(W.writeSegment(payload(1, 4)));
    ASSERT_TRUE(W.writeSegment(payload(2, 4)));
    W.abandon(); // crash path: no clean-close marker
  }
  SegmentScan Scan = scanDurableLog(Path);
  EXPECT_TRUE(Scan.HeaderOk);
  EXPECT_FALSE(Scan.Clean);
  // Both segments were durably flushed and survive intact.
  ASSERT_EQ(Scan.Segments.size(), 2u);
  EXPECT_EQ(Scan.SegmentsDropped, 0u);
  std::remove(Path.c_str());
}

TEST(DurableLog, TruncatedTailIsCut) {
  std::string Path = makeTempPath("dlog-trunc");
  {
    DurableLogWriter W(Path);
    ASSERT_TRUE(W.writeSegment(payload(1, 8)));
    ASSERT_TRUE(W.writeSegment(payload(2, 8)));
    ASSERT_TRUE(W.closeClean());
  }
  std::vector<unsigned char> Bytes = slurp(Path);
  ASSERT_GT(Bytes.size(), 40u);
  // Chop the file mid-way through the second segment.
  Bytes.resize(Bytes.size() - 30);
  spit(Path, Bytes);

  SegmentScan Scan = scanDurableLog(Path);
  EXPECT_TRUE(Scan.HeaderOk);
  EXPECT_FALSE(Scan.Clean);
  ASSERT_EQ(Scan.Segments.size(), 1u);
  EXPECT_EQ(Scan.Segments[0], payload(1, 8));
  EXPECT_EQ(Scan.SegmentsDropped, 1u);
  EXPECT_GT(Scan.WordsDropped, 0u);
  std::remove(Path.c_str());
}

TEST(DurableLog, ChecksumRejectsBitFlip) {
  std::string Path = makeTempPath("dlog-flip");
  {
    DurableLogWriter W(Path);
    ASSERT_TRUE(W.writeSegment(payload(1, 8)));
    ASSERT_TRUE(W.writeSegment(payload(2, 8)));
    ASSERT_TRUE(W.closeClean());
  }
  std::vector<unsigned char> Bytes = slurp(Path);
  // Flip one bit inside the *second* segment's payload. Layout: 1 file
  // header word, then per segment [magic][count][meta][payload...].
  size_t SecondPayload = (1 + 3 + 8 + 3 + 2) * 8;
  ASSERT_LT(SecondPayload, Bytes.size());
  Bytes[SecondPayload] ^= 0x10;
  spit(Path, Bytes);

  SegmentScan Scan = scanDurableLog(Path);
  EXPECT_TRUE(Scan.HeaderOk);
  EXPECT_FALSE(Scan.Clean);
  ASSERT_EQ(Scan.Segments.size(), 1u);
  EXPECT_EQ(Scan.Segments[0], payload(1, 8));
  EXPECT_EQ(Scan.SegmentsDropped, 1u);
  std::remove(Path.c_str());
}

TEST(DurableLog, CorruptHeaderFailsTheScan) {
  std::string Path = makeTempPath("dlog-hdr");
  {
    DurableLogWriter W(Path);
    ASSERT_TRUE(W.writeSegment(payload(1, 2)));
    ASSERT_TRUE(W.closeClean());
  }
  std::vector<unsigned char> Bytes = slurp(Path);
  Bytes[0] ^= 0xff;
  spit(Path, Bytes);
  SegmentScan Scan = scanDurableLog(Path);
  EXPECT_FALSE(Scan.HeaderOk);
  EXPECT_FALSE(Scan.Error.empty());
  std::remove(Path.c_str());
}

TEST(DurableLog, MissingFileFailsTheScan) {
  SegmentScan Scan = scanDurableLog("/nonexistent/missing.dlog");
  EXPECT_FALSE(Scan.HeaderOk);
  EXPECT_FALSE(Scan.Error.empty());
}

TEST(DurableLog, EmptyCleanLog) {
  std::string Path = makeTempPath("dlog-empty");
  {
    DurableLogWriter W(Path);
    ASSERT_TRUE(W.closeClean());
  }
  SegmentScan Scan = scanDurableLog(Path);
  EXPECT_TRUE(Scan.HeaderOk);
  EXPECT_TRUE(Scan.Clean);
  EXPECT_EQ(Scan.Segments.size(), 0u);
  std::remove(Path.c_str());
}

TEST(DurableLog, InjectedEpochCrashLosesTheTailSilently) {
  fault::Injector &In = fault::Injector::global();
  ASSERT_EQ(In.configure("log.crash_at_epoch=2,log.torn_bytes=12"), "");
  std::string Path = makeTempPath("dlog-crash");
  {
    DurableLogWriter W(Path);
    ASSERT_TRUE(W.writeSegment(payload(1, 6)));
    EXPECT_FALSE(W.crashed());
    // SIGKILL semantics: the write "succeeds" from the producer's point of
    // view, but only a torn fragment hits the disk and everything after is
    // lost.
    EXPECT_TRUE(W.writeSegment(payload(2, 6)));
    EXPECT_TRUE(W.crashed());
    EXPECT_TRUE(W.writeSegment(payload(3, 6)));
    EXPECT_TRUE(W.closeClean());
  }
  In.reset();

  SegmentScan Scan = scanDurableLog(Path);
  EXPECT_TRUE(Scan.HeaderOk);
  EXPECT_FALSE(Scan.Clean); // the clean-close marker was lost with the tail
  ASSERT_EQ(Scan.Segments.size(), 1u);
  EXPECT_EQ(Scan.Segments[0], payload(1, 6));
  EXPECT_EQ(Scan.SegmentsDropped, 1u);
  std::remove(Path.c_str());
}

TEST(DurableLog, OpenFailureIsReported) {
  fault::Injector &In = fault::Injector::global();
  ASSERT_EQ(In.configure("io.open_fail"), "");
  DurableLogWriter W(makeTempPath("dlog-openfail"));
  In.reset();
  EXPECT_FALSE(W.ok());
  EXPECT_FALSE(W.error().empty());
  EXPECT_FALSE(W.writeSegment(payload(1, 2)));
}

TEST(DurableLog, ParentDirSyncFailureFailsTheWriter) {
  // The header is only durable once the parent directory entry is synced;
  // a failed dirsync must poison the writer like any other I/O error so
  // the CI child reports it as a retryable infra failure.
  fault::Injector &In = fault::Injector::global();
  ASSERT_EQ(In.configure("io.dirsync_fail=1"), "");
  std::string Path = makeTempPath("dlog-dirsync");
  DurableLogWriter W(Path);
  In.reset();
  EXPECT_FALSE(W.ok());
  EXPECT_NE(W.error().find("director"), std::string::npos) << W.error();
  EXPECT_FALSE(W.writeSegment(payload(1, 2)));
  std::remove(Path.c_str());
}

TEST(DurableLog, ParentDirSyncHappyPathStillRoundTrips) {
  // Same sequence with the fault disarmed: the dirsync is invisible.
  std::string Path = makeTempPath("dlog-dirsync-ok");
  {
    DurableLogWriter W(Path);
    ASSERT_TRUE(W.ok()) << W.error();
    ASSERT_TRUE(W.writeSegment(payload(4, 3)));
    ASSERT_TRUE(W.closeClean());
  }
  SegmentScan Scan = scanDurableLog(Path);
  EXPECT_TRUE(Scan.HeaderOk);
  EXPECT_TRUE(Scan.Clean);
  ASSERT_EQ(Scan.Segments.size(), 1u);
  std::remove(Path.c_str());
}

} // namespace
