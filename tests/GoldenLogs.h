//===- tests/GoldenLogs.h - Committed recordings under tests/data -*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The golden logs under tests/data pin the on-disk formats. Every file
/// records the same run — the TimedWait-Flake kernel under seed 1, which
/// covers the spans, syscalls, spawns and counters sections — and
/// tests/data/README.md lists the commands that wrote them:
///
///   legacy/...light001   LIGHT001, the finished log in plain words
///   legacy/...light002   LIGHT002, 2-span epochs (6 data segments)
///   light003/...light003 LIGHT003, the same 2-span epochs
///
/// Nothing writes LIGHT001 or LIGHT002 any more, so the legacy files are
/// the only inputs their readers have.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_TESTS_GOLDENLOGS_H
#define LIGHT_TESTS_GOLDENLOGS_H

#include "bugs/BugPrograms.h"
#include "interp/Machine.h"
#include "interp/Scheduler.h"
#include "runtime/AccessHook.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace light {
namespace golden {

constexpr uint64_t Seed = 1;
constexpr const char *Light001 = "legacy/timedwait-flake-1.light001";
constexpr const char *Light002 = "legacy/timedwait-flake-1-epoch2.light002";
constexpr const char *Light003Epochs =
    "light003/timedwait-flake-1-epoch2.light003";

/// Absolute path of a golden log.
inline std::string path(const std::string &Rel) {
  return std::string(LIGHT_TEST_DATA_DIR) + "/" + Rel;
}

/// The whole file, byte for byte (empty when unreadable).
inline std::vector<unsigned char> bytes(const std::string &Path) {
  std::vector<unsigned char> Out;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Out;
  unsigned char Buf[4096];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof Buf, F)) > 0)
    Out.insert(Out.end(), Buf, Buf + Got);
  std::fclose(F);
  return Out;
}

/// The recorded program.
inline mir::Program program() {
  for (bugs::BugBenchmark &B : bugs::makeSyncBugSuite())
    if (B.Name == "TimedWait-Flake")
      return std::move(B.Prog);
  ADD_FAILURE() << "TimedWait-Flake is missing from the sync bug suite";
  return mir::Program();
}

/// The recorded run repeated without a recorder: the outcome every replay
/// of a golden log must reproduce.
inline RunResult run(const mir::Program &Prog) {
  NullHook Null;
  Machine M(Prog, Null);
  M.seedEnvironment(Seed ^ 0x5a5a);
  RandomScheduler Sched(Seed);
  return M.run(Sched);
}

} // namespace golden
} // namespace light

#endif // LIGHT_TESTS_GOLDENLOGS_H
