//===- dist/NodeSet.h - Causal-cut salvage of multi-node logs ---*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline half of fault-tolerant multi-node replay: load every node's
/// durable epoch log and message log independently (each through the same
/// torn-tail salvage the single-process pipeline uses), compute the
/// *maximal causal cut* of the surviving evidence, merge the per-node
/// constraint systems into one global ScheduleProblem with explicit
/// send->recv cross-node edges, and solve it.
///
/// The causal cut is the fixpoint of two discard rules over the per-thread
/// horizons the salvage recovered:
///
///  * a receive is unjustified when its matching (chan, seq) send is
///    missing from the sending node's salvaged evidence — the send record
///    was never durable, or the sender's ghost chan access fell past that
///    thread's own cut;
///  * an access is unjustified when it observes (reads, or depends on via a
///    span source) an access its own node's cut already discarded.
///
/// An unjustified access truncates its thread's cut just below it, which
/// can invalidate that thread's later sends, which truncates receivers on
/// other nodes — the fixpoint iterates until no rule fires. The result is
/// either a full global schedule (every node closed cleanly, nothing cut)
/// or a structured PartialCut describing exactly which (node, thread)
/// prefixes survive — never a wrong schedule.
///
/// Merging renames each node into a disjoint slice of the global id space:
/// thread t of node n becomes NodeThreadStride*n + t, and every location is
/// node-qualified (nodes are separate address spaces, so global g of node 0
/// and global g of node 1 are different cells; channel ghost words were
/// already node-stamped at record time). Cross-node edges anchor on the
/// exact ghost chan accesses — the recorder emits channel RMWs as
/// singleton spans precisely so both endpoints are order variables.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_DIST_NODESET_H
#define LIGHT_DIST_NODESET_H

#include "core/ConstraintGen.h"
#include "core/ReplaySchedule.h"
#include "trace/MessageLog.h"
#include "trace/RecordingLog.h"

#include <string>
#include <vector>

namespace light {
namespace dist {

/// Thread-id slice width per node in the merged system. The span wire
/// format caps thread ids at 14 bits and ObjectId packing at 12 bits, so
/// 16 nodes x 256 threads is the largest grid every encoding accepts.
constexpr uint32_t NodeThreadStride = 256;
constexpr uint32_t MaxNodes = 16;

/// The epoch-log path of node \p Node under \p BasePath ("<base>.node<i>");
/// its message log sits next to it at messageLogPath(nodeLogPath(...)).
std::string nodeLogPath(const std::string &BasePath, uint32_t Node);

/// One truncation the causal cut applied: everything of (Node, Thread)
/// after access counter Cut was discarded, for Reason.
struct PartialCutEntry {
  uint32_t Node = 0;
  ThreadId Thread = 0; ///< node-local thread id
  Counter Cut = 0;     ///< last surviving access counter (0 = nothing)
  uint64_t DroppedSpans = 0;
  uint64_t DroppedMessages = 0;
  std::string Reason;

  std::string str() const;
};

/// Everything salvage recovered for one node.
struct NodeSalvage {
  SalvageOutcome Epoch;
  MessageLogSalvage Msgs;
  /// Per-thread last surviving counter after the causal cut (index =
  /// node-local ThreadId). Starts at the salvaged horizon.
  std::vector<Counter> Cut;
};

/// Result of the load -> cut -> merge -> solve pipeline.
struct MergeResult {
  /// At least one node contributed a usable prefix; Merged/Order are
  /// meaningful. False means nothing was salvageable anywhere — Error says
  /// why — which is still a structured outcome, not a crash.
  bool Loaded = false;

  /// Every node's logs closed cleanly and the cut discarded nothing: the
  /// solved order is a *full* global schedule. Otherwise Cut lists the
  /// surviving prefixes (PartialCut).
  bool FullSchedule = false;

  std::vector<PartialCutEntry> Cut;
  std::vector<NodeSalvage> Nodes;

  /// The merged (renamed, cut) recording and its solved global order.
  RecordingLog Merged;
  std::vector<AccessId> Order; ///< global ids, NodeThreadStride slices
  smt::SolveResult Stats;
  uint64_t CrossEdges = 0; ///< send->recv constraints added to the system

  std::string Error;
};

/// What one node needs to replay in isolation: its cut-truncated local log,
/// the message deliveries to redeliver (ReplayChannelTransport), and the
/// node-local projection of the solved global order.
struct NodeReplayPlan {
  RecordingLog Log; ///< node-local ids
  std::vector<MessageRecord> Messages;
  ReplaySchedule Plan;
  /// True when this node's evidence was complete (clean close, nothing
  /// cut): the replay must validate; otherwise it runs best-effort.
  bool Validate = false;
};

/// Loads, cuts, merges, and solves a node set.
class NodeSetLoader {
public:
  /// Salvages the logs of \p Nodes nodes under \p BasePath and runs the
  /// causal-cut fixpoint. Returns the structured outcome; solve() has not
  /// run yet (Order is empty until it does).
  MergeResult load(const std::string &BasePath, uint32_t Nodes);

  /// Builds the merged constraint system from \p R (cross-node edges
  /// included), solves it, and fills R.Order/R.Stats. Returns false (with
  /// R.Error set) when the solve fails — which a correct cut rules out, so
  /// a failure here is reported, never papered over.
  bool solve(MergeResult &R, smt::SolverEngine Engine = smt::SolverEngine::Idl,
             smt::SolverLimits Limits = {});

  /// Projects the solved global order onto node \p Node and assembles its
  /// isolated replay plan. Requires solve() to have succeeded.
  NodeReplayPlan projectNode(const MergeResult &R, uint32_t Node) const;
};

/// Renames node \p Node's local log into the merged id space, appending to
/// \p Out. Exposed for tests; NodeSetLoader uses it internally.
void mergeNodeLog(RecordingLog &Out, const RecordingLog &Local,
                  uint32_t Node);

} // namespace dist
} // namespace light

#endif // LIGHT_DIST_NODESET_H
