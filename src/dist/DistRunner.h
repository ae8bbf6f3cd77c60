//===- dist/DistRunner.h - Multi-node recording harness ---------*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The record half of fault-tolerant multi-node record/replay: fork one
/// process per node, each running the program's `node(index)` function
/// under its own LightRecorder with a durable LIGHT003 epoch log
/// ("<base>.node<i>") and a durable message log next to it, all wired to a
/// shared pre-fork PipeFabric. Message delivery uses bounded
/// retry-with-backoff; the retry count is recorded as a syscall input, so
/// replay is attempt-faithful.
///
/// Node-program convention: the program declares its channels and defines
/// a function named `node` taking one parameter (the node index). A
/// multi-node run gives each forked node a synthesized entry that calls
/// `node(i)`; the program's own entry (which conventionally spawns
/// `node(i)` threads itself) is what single-process tools — explorer,
/// oracle, shrinker — execute, so the same .mir file serves both modes.
///
/// Fault surface (support/FaultInjection.h): beyond the transport's
/// dist.drop_msg / dist.dup_msg / dist.reorder, the runner's children
/// honor the node-kill sites, whose numeric argument selects the *target
/// node* as a 1-based index (`site=N` here means "kill node N-1", not
/// "fire on the Nth hit" — the spec grammar's counts are 1-based, so
/// node 0 is addressed as =1):
///
///   dist.kill_node.start   SIGKILL before the recorder exists (no log)
///   dist.kill_node.mid     SIGKILL at the node's 3rd channel endpoint
///                          operation (durable prefix, torn tail)
///   dist.kill_node.flush   SIGKILL after the run, before the final
///                          segment / clean-close marker is written
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_DIST_DISTRUNNER_H
#define LIGHT_DIST_DISTRUNNER_H

#include "mir/Program.h"

#include <cstdint>
#include <string>
#include <vector>

namespace light {
namespace dist {

/// Channel endpoint operations a dist.kill_node.mid target completes
/// before dying: the 3rd op never happens, so the kill lands mid-protocol
/// with real durable state behind it.
constexpr uint64_t MidKillAfterOps = 2;

struct DistOptions {
  uint32_t Nodes = 2;
  uint64_t Seed = 1;
  std::string LogBase;     ///< per-node logs at "<LogBase>.node<i>"
  size_t EpochSpans = 4;   ///< durable epoch granularity (spans per epoch)
  uint64_t EpochMs = 0;
  uint64_t MaxInstructions = 20000000ull;
};

/// How one node's process ended.
struct NodeOutcome {
  bool Forked = false;
  bool Signaled = false;
  int Signal = 0;
  int ExitCode = -1;
  /// Exit-code protocol of the node child.
  bool completedCleanly() const { return !Signaled && ExitCode == 0; }
  bool crashedAtBug() const { return !Signaled && ExitCode == 42; }

  std::string str() const;
};

struct DistRecordResult {
  bool Started = false; ///< fabric built and every fork attempted
  std::vector<NodeOutcome> Nodes;
  std::string Error;

  /// True when every node exited by protocol (clean or crashed-at-bug) —
  /// i.e. no node died to a signal or infrastructure failure.
  bool allByProtocol() const;
};

/// Builds node \p Node's executable program: a copy of \p Prog whose entry
/// is a synthesized wrapper calling `node(Node)`. Returns false (with
/// \p Err set) when the program has no unary `node` function.
bool makeNodeProgram(const mir::Program &Prog, uint32_t Node,
                     mir::Program &Out, std::string &Err);

/// Records \p Prog across Opts.Nodes forked node processes. Each node's
/// durable epoch log and message log land at nodeLogPath(Opts.LogBase, i)
/// / its ".msg" sibling; salvage and merge are NodeSetLoader's job.
DistRecordResult runDistRecord(const mir::Program &Prog,
                               const DistOptions &Opts);

} // namespace dist
} // namespace light

#endif // LIGHT_DIST_DISTRUNNER_H
