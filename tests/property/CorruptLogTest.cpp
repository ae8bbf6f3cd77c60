//===- tests/property/CorruptLogTest.cpp ----------------------------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// Property: RecordingLog::load() never crashes, asserts, or decodes
/// garbage on arbitrarily mangled input. Every format load() reads is
/// mangled with random truncations and bit flips: the golden LIGHT001 and
/// LIGHT002 logs, a saveCompact() LIGHT003 log, and a multi-segment LIGHT003
/// epoch log. Every load must either fail cleanly (with an error in the
/// report) or produce a log whose constraint system still builds and solves
/// without tripping anything.
///
//===----------------------------------------------------------------------===//

#include "../GoldenLogs.h"
#include "../TestPrograms.h"
#include "support/Random.h"
#include "testlib/TestEnv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

using namespace light;
using namespace light::testprogs;

namespace {

void spit(const std::string &Path, const std::vector<unsigned char> &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  if (!Bytes.empty()) {
    ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  }
  std::fclose(F);
}

/// Applies one random mutation: truncation, bit flip, or a burst of flips.
std::vector<unsigned char> mutate(const std::vector<unsigned char> &Orig,
                                  Rng &R) {
  std::vector<unsigned char> Bytes = Orig;
  switch (R.below(3)) {
  case 0: // truncate to a random (possibly empty) prefix
    Bytes.resize(R.below(Bytes.size() + 1));
    break;
  case 1: // single bit flip
    if (!Bytes.empty())
      Bytes[R.below(Bytes.size())] ^= 1u << R.below(8);
    break;
  default: // short burst of corruption
    for (int I = 0; I < 16 && !Bytes.empty(); ++I)
      Bytes[R.below(Bytes.size())] ^= static_cast<unsigned char>(R.next());
    break;
  }
  return Bytes;
}

/// The property body: load the mangled file; on success the log must still
/// be solvable without crashing.
void checkMangled(const std::string &Path) {
  RecordingLog Log;
  LogLoadReport Report;
  if (!Log.load(Path, Report)) {
    EXPECT_FALSE(Report.Error.empty());
    return;
  }
  // Loaded (possibly salvaged): downstream machinery must stay crash-free.
  ReplaySchedule RS = ReplaySchedule::build(Log);
  if (!RS.ok()) {
    EXPECT_FALSE(RS.error().empty());
  }
}

class CorruptLog : public ::testing::Test {
protected:
  void runProperty(const std::vector<unsigned char> &Orig, uint64_t SeedBase) {
    uint64_t Seed = testenv::effectiveSeed(SeedBase);
    SCOPED_TRACE(testenv::repro(Seed));
    ASSERT_FALSE(Orig.empty());
    std::string Mangled = makeTempPath("corrupt-mut");
    Rng R(Seed);
    int Trials = 120 * testenv::iters(1);
    for (int Trial = 0; Trial < Trials; ++Trial) {
      spit(Mangled, mutate(Orig, R));
      checkMangled(Mangled);
    }
    std::remove(Mangled.c_str());
  }

  /// The bytes of a LIGHT003 log of a recorded counter race: one
  /// saveCompact() segment, or 2-span epochs (many segments).
  std::vector<unsigned char> light003(bool Epochs) {
    mir::Program Prog = counterRace(3, 5);
    std::string Path = makeTempPath("corrupt-src");
    LightOptions Opts;
    if (Epochs) {
      Opts.EpochSpans = 2;
      Opts.DurableLogPath = Path;
    }
    RecordOutcome Rec = recordRun(Prog, 7, Opts);
    if (!Epochs) {
      EXPECT_GT(Rec.Log.saveCompact(Path), 0u);
    }
    std::vector<unsigned char> Bytes = golden::bytes(Path);
    std::remove(Path.c_str());
    return Bytes;
  }
};

TEST_F(CorruptLog, Light002NeverCrashesOnMangledInput) {
  runProperty(golden::bytes(golden::path(golden::Light002)), 0xd1ce);
}

TEST_F(CorruptLog, Light001NeverCrashesOnMangledInput) {
  runProperty(golden::bytes(golden::path(golden::Light001)), 0xfeed);
}

TEST_F(CorruptLog, Light003NeverCrashesOnMangledInput) {
  runProperty(light003(/*Epochs=*/false), 0xc0de);
}

TEST_F(CorruptLog, Light003EpochLogNeverCrashesOnMangledInput) {
  runProperty(light003(/*Epochs=*/true), 0xe90c);
}

TEST_F(CorruptLog, EmptyAndTinyFiles) {
  std::string Path = makeTempPath("corrupt-tiny");
  for (size_t N : {size_t(0), size_t(1), size_t(7), size_t(8), size_t(9)}) {
    spit(Path, std::vector<unsigned char>(N, 0xab));
    RecordingLog Log;
    LogLoadReport Report;
    EXPECT_FALSE(Log.load(Path, Report));
    EXPECT_FALSE(Report.Error.empty());
  }
  std::remove(Path.c_str());
}

} // namespace
