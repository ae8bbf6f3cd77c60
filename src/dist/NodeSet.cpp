//===- dist/NodeSet.cpp - Causal-cut salvage of multi-node logs -----------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "dist/NodeSet.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <map>
#include <unordered_set>

using namespace light;
using namespace light::dist;

std::string dist::nodeLogPath(const std::string &BasePath, uint32_t Node) {
  return BasePath + ".node" + std::to_string(Node);
}

std::string PartialCutEntry::str() const {
  return "node" + std::to_string(Node) + " t" + std::to_string(Thread) +
         " cut@" + std::to_string(Cut) + " (" +
         std::to_string(DroppedSpans) + " span(s), " +
         std::to_string(DroppedMessages) + " msg(s) dropped): " + Reason;
}

namespace {

/// Renames \p T into node \p Node's slice of the merged thread-id space.
ThreadId globalTid(uint32_t Node, ThreadId T) {
  return static_cast<ThreadId>(Node * NodeThreadStride + T);
}

/// Node-qualifies \p L: nodes are separate address spaces, so every
/// location that names node-local state is renamed into the node's slice.
/// Channel ghost words were node-stamped at record time and pass through.
LocationId remapLoc(LocationId L, uint32_t Node) {
  uint64_t Payload = loc::payloadOf(L);
  auto RemapObj = [&](uint64_t Packed) {
    ObjectId O = ObjectId::unpack(Packed);
    O.AllocThread = globalTid(Node, O.AllocThread);
    return O.pack();
  };
  switch (loc::kindOf(L)) {
  case LocationKind::Field:
  case LocationKind::ArrayElem:
    return loc::make(loc::kindOf(L),
                     (RemapObj(Payload >> 20) << 20) | (Payload & 0xfffff));
  case LocationKind::Lock:
  case LocationKind::Cond:
  case LocationKind::RwLock:
  case LocationKind::Barrier:
    return loc::make(loc::kindOf(L), RemapObj(Payload));
  case LocationKind::ThreadStart:
  case LocationKind::ThreadTerm:
    return loc::make(loc::kindOf(L),
                     globalTid(Node, static_cast<ThreadId>(Payload)));
  case LocationKind::Var:
    // Runtime-API variable ids are user-assigned and node-local; stamp the
    // node into bits the ids never reach.
    return loc::make(LocationKind::Var,
                     Payload | (static_cast<uint64_t>(Node) << 40));
  case LocationKind::Chan:
  case LocationKind::Invalid:
    return L;
  }
  return L;
}

/// The per-channel global seqno names the send uniquely across the node
/// set (it comes from one shared fetch_add), so (chan, seq) is the match
/// key between a delivery and its originating send.
using MsgKey = std::pair<uint32_t, uint64_t>;

struct SendRef {
  uint32_t Node = 0;
  AccessId Access;
};

/// Durable span evidence of one node's ghost channel accesses: the packed
/// AccessIds the salvaged epoch log actually anchors. A message-log record
/// without this evidence cannot join the constraint system (the message
/// log flushes more eagerly than the epoch log, so it routinely runs
/// ahead of a dead node's last durable epoch).
std::unordered_set<uint64_t> chanEvidence(const RecordingLog &Log) {
  std::unordered_set<uint64_t> Out;
  for (const DepSpan &S : Log.Spans) {
    if (loc::kindOf(S.Loc) != LocationKind::Chan)
      continue;
    // Channel RMWs are recorded as singleton spans (anchor accesses); a
    // ChanMake-write-headed span can stretch, so walk short ranges.
    Counter Hi = std::min(S.Last, S.First + 64);
    for (Counter C = S.First; C <= Hi; ++C)
      Out.insert(AccessId(S.Thread, C).pack());
  }
  return Out;
}

Counter cutOf(const std::vector<Counter> &Cut, ThreadId T) {
  return T < Cut.size() ? Cut[T] : 0;
}

void shrinkCut(std::vector<Counter> &Cut, ThreadId T, Counter NewCut) {
  if (Cut.size() <= T)
    Cut.resize(T + 1, 0);
  Cut[T] = std::min(Cut[T], NewCut);
}

} // namespace

void dist::mergeNodeLog(RecordingLog &Out, const RecordingLog &Local,
                        uint32_t Node) {
  for (DepSpan S : Local.Spans) {
    S.Thread = globalTid(Node, S.Thread);
    if (S.Src.valid())
      S.Src.Thread = globalTid(Node, S.Src.Thread);
    S.Loc = remapLoc(S.Loc, Node);
    Out.Spans.push_back(S);
  }
  for (SyscallRecord R : Local.Syscalls) {
    R.Thread = globalTid(Node, R.Thread);
    Out.Syscalls.push_back(R);
  }
  for (SpawnRecord R : Local.Spawns) {
    R.Parent = globalTid(Node, R.Parent);
    R.Child = globalTid(Node, R.Child);
    Out.Spawns.push_back(R);
  }
  size_t Base = Node * NodeThreadStride;
  if (Out.FinalCounters.size() < Base + Local.FinalCounters.size())
    Out.FinalCounters.resize(Base + Local.FinalCounters.size(), 0);
  for (size_t T = 0; T < Local.FinalCounters.size(); ++T)
    Out.FinalCounters[Base + T] = Local.FinalCounters[T];
}

MergeResult NodeSetLoader::load(const std::string &BasePath, uint32_t Nodes) {
  MergeResult R;
  if (Nodes == 0 || Nodes > MaxNodes) {
    R.Error = "node count must be in [1, " + std::to_string(MaxNodes) + "]";
    return R;
  }

  // Phase 1: independent per-node salvage. A node that left nothing usable
  // is a node cut at zero, not an error.
  R.Nodes.resize(Nodes);
  std::vector<std::unordered_set<uint64_t>> Evidence(Nodes);
  bool AnyUsable = false;
  for (uint32_t N = 0; N < Nodes; ++N) {
    NodeSalvage &NS = R.Nodes[N];
    std::string LogPath = nodeLogPath(BasePath, N);
    NS.Epoch = salvageRecording(LogPath);
    NS.Msgs = loadMessageLog(messageLogPath(LogPath));
    if (NS.Epoch.UsablePrefix) {
      AnyUsable = true;
      NS.Cut = NS.Epoch.Log.FinalCounters; // the salvaged horizon
      Evidence[N] = chanEvidence(NS.Epoch.Log);
    }
    // else: Cut stays empty — every thread cut at 0.
  }
  if (!AnyUsable) {
    R.Error = "no node left a usable log prefix under '" + BasePath + "'";
    return R;
  }
  R.Loaded = true;

  // The send side of every message, keyed by its globally unique
  // (channel, seqno). Duplicated deliveries (dist.dup_msg) both match the
  // one originating send.
  std::map<MsgKey, SendRef> Sends;
  for (uint32_t N = 0; N < Nodes; ++N)
    for (const MessageRecord &M : R.Nodes[N].Msgs.Records)
      if (M.IsSend)
        Sends[{M.Chan, M.Seq}] = {N, M.Access};

  // Phase 2: the causal-cut fixpoint. Each pass applies both discard rules
  // against the *current* cuts; a pass that shrinks nothing is the
  // fixpoint. Each pass strictly shrinks some cut, so the loop terminates.
  auto Justify = [&](uint32_t Node, const MessageRecord &M,
                     std::string &Why) {
    if (!Evidence[Node].count(M.Access.pack())) {
      Why = "no durable span anchors the delivery";
      return false;
    }
    auto It = Sends.find({M.Chan, M.Seq});
    if (It == Sends.end()) {
      Why = "recv chan" + std::to_string(M.Chan) + " seq" +
            std::to_string(M.Seq) + " has no recorded send";
      return false;
    }
    const SendRef &S = It->second;
    if (S.Access.Count > cutOf(R.Nodes[S.Node].Cut, S.Access.Thread) ||
        !Evidence[S.Node].count(S.Access.pack())) {
      Why = "matching send on node" + std::to_string(S.Node) +
            " fell past that node's salvaged prefix";
      return false;
    }
    return true;
  };

  std::vector<PartialCutEntry> Entries;
  auto Truncate = [&](uint32_t Node, ThreadId T, Counter NewCut,
                      const std::string &Reason) {
    shrinkCut(R.Nodes[Node].Cut, T, NewCut);
    PartialCutEntry E;
    E.Node = Node;
    E.Thread = T;
    E.Cut = NewCut;
    E.Reason = Reason;
    Entries.push_back(E);
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t N = 0; N < Nodes; ++N) {
      NodeSalvage &NS = R.Nodes[N];
      // Rule 1: every surviving delivery must be justified by a surviving
      // send with durable anchors on both ends.
      for (const MessageRecord &M : NS.Msgs.Records) {
        if (M.IsSend || M.Access.Count > cutOf(NS.Cut, M.Access.Thread))
          continue;
        std::string Why;
        if (!Justify(N, M, Why)) {
          Truncate(N, M.Access.Thread, M.Access.Count - 1, Why);
          Changed = true;
        }
      }
      // Rule 2: a span whose source write was cut observed a value the cut
      // execution never produces; the reader truncates just below it.
      if (!NS.Epoch.UsablePrefix)
        continue;
      for (const DepSpan &S : NS.Epoch.Log.Spans) {
        if (S.First > cutOf(NS.Cut, S.Thread))
          continue;
        if (S.Src.valid() && S.Src.Count > cutOf(NS.Cut, S.Src.Thread)) {
          Truncate(N, S.Thread, S.First - 1,
                   "span source " + S.Src.str() + " was cut");
          Changed = true;
        }
      }
    }
  }

  // Phase 3: apply the cuts, producing each node's surviving local log and
  // message set, and the merged recording.
  bool AnythingCut = false;
  for (uint32_t N = 0; N < Nodes; ++N) {
    NodeSalvage &NS = R.Nodes[N];
    uint64_t DroppedSpans = 0, DroppedMsgs = 0;
    RecordingLog CutLog;
    if (NS.Epoch.UsablePrefix) {
      CutLog = NS.Epoch.Log;
      CutLog.Spans.clear();
      for (DepSpan S : NS.Epoch.Log.Spans) {
        Counter Lim = cutOf(NS.Cut, S.Thread);
        if (S.First > Lim) {
          ++DroppedSpans;
          continue;
        }
        S.Last = std::min(S.Last, Lim);
        CutLog.Spans.push_back(S);
      }
      for (size_t T = 0; T < CutLog.FinalCounters.size(); ++T)
        CutLog.FinalCounters[T] =
            std::min(CutLog.FinalCounters[T],
                     cutOf(NS.Cut, static_cast<ThreadId>(T)));
    }
    std::vector<MessageRecord> CutMsgs;
    for (const MessageRecord &M : NS.Msgs.Records) {
      if (M.Access.Count > cutOf(NS.Cut, M.Access.Thread) ||
          !Evidence[N].count(M.Access.pack())) {
        ++DroppedMsgs;
        continue;
      }
      CutMsgs.push_back(M);
    }
    NS.Epoch.Log = std::move(CutLog);
    NS.Msgs.Records = std::move(CutMsgs);

    bool NodeClean = NS.Epoch.UsablePrefix && NS.Epoch.Report.CleanClose &&
                     NS.Msgs.CleanClose && DroppedSpans == 0 &&
                     DroppedMsgs == 0;
    if (!NodeClean)
      AnythingCut = true;
    // Attribute the drop tallies to this node's cut entries (or synthesize
    // one when the whole node was unusable).
    bool Attributed = false;
    for (PartialCutEntry &E : Entries)
      if (E.Node == N && !Attributed) {
        E.DroppedSpans = DroppedSpans;
        E.DroppedMessages = DroppedMsgs;
        Attributed = true;
      }
    if (!Attributed && !NodeClean) {
      PartialCutEntry E;
      E.Node = N;
      E.Thread = 0;
      E.Cut = cutOf(NS.Cut, 0);
      E.DroppedSpans = DroppedSpans;
      E.DroppedMessages = DroppedMsgs;
      E.Reason = !NS.Epoch.UsablePrefix
                     ? ("no usable epoch log: " +
                        (NS.Epoch.Error.empty() ? NS.Epoch.Report.Error
                                                : NS.Epoch.Error))
                     : "torn log salvaged (prefix survives uncut)";
      Entries.push_back(E);
    }

    if (NS.Epoch.UsablePrefix)
      mergeNodeLog(R.Merged, NS.Epoch.Log, N);
  }

  R.Cut = std::move(Entries);
  R.FullSchedule = !AnythingCut;
  obs::Registry &Reg = obs::Registry::global();
  Reg.counter("dist.nodes_salvaged").add(Nodes);
  Reg.counter("dist.cut_entries").add(R.Cut.size());
  return R;
}

bool NodeSetLoader::solve(MergeResult &R, smt::SolverEngine Engine,
                          smt::SolverLimits Limits) {
  if (!R.Loaded) {
    if (R.Error.empty())
      R.Error = "nothing loaded";
    return false;
  }
  std::vector<SpanVarRefs> Spans = spanRefsOf(R.Merged);
  ScheduleProblem P = generateScheduleProblem(Spans);

  // Cross-node edges: every surviving delivery is ordered after its
  // originating send. Both endpoints are singleton-span anchors, so each
  // has an order variable; a missing variable would mean the cut invariant
  // broke, which must surface as an error, never as a silently weaker
  // schedule.
  std::map<MsgKey, AccessId> Sends;
  for (uint32_t N = 0; N < R.Nodes.size(); ++N)
    for (const MessageRecord &M : R.Nodes[N].Msgs.Records)
      if (M.IsSend)
        Sends[{M.Chan, M.Seq}] =
            AccessId(globalTid(N, M.Access.Thread), M.Access.Count);
  R.CrossEdges = 0;
  for (uint32_t N = 0; N < R.Nodes.size(); ++N) {
    for (const MessageRecord &M : R.Nodes[N].Msgs.Records) {
      if (M.IsSend)
        continue;
      auto It = Sends.find({M.Chan, M.Seq});
      if (It == Sends.end())
        continue; // justified recvs always match; defensive
      smt::Var VS = P.varOf(It->second);
      smt::Var VR =
          P.varOf(AccessId(globalTid(N, M.Access.Thread), M.Access.Count));
      if (VS == ~0u || VR == ~0u) {
        R.Error = "cross-node edge lost its anchor (chan" +
                  std::to_string(M.Chan) + " seq" + std::to_string(M.Seq) +
                  "): cut invariant violated";
        return false;
      }
      P.System.addLess(VS, VR);
      ++R.CrossEdges;
    }
  }

  R.Stats = P.solve(Engine, Limits, R.Order);
  if (!R.Stats.sat()) {
    R.Error = R.Stats.failed()
                  ? "merged solve failed (" + R.Stats.failReasonStr() +
                        "): " + R.Stats.Message
                  : "merged constraint system unsatisfiable: the causal cut "
                    "admitted inconsistent evidence" +
                        (R.Stats.Message.empty() ? "" : ": " + R.Stats.Message);
    return false;
  }
  obs::Registry::global().counter("dist.cross_edges").add(R.CrossEdges);
  return true;
}

NodeReplayPlan NodeSetLoader::projectNode(const MergeResult &R,
                                          uint32_t Node) const {
  NodeReplayPlan Plan;
  const NodeSalvage &NS = R.Nodes[Node];
  Plan.Log = NS.Epoch.Log;
  Plan.Messages = NS.Msgs.Records;
  Plan.Validate = R.FullSchedule ||
                  (NS.Epoch.UsablePrefix && NS.Epoch.Report.CleanClose &&
                   NS.Msgs.CleanClose &&
                   std::none_of(R.Cut.begin(), R.Cut.end(),
                                [&](const PartialCutEntry &E) {
                                  return E.Node == Node;
                                }));

  ThreadId Lo = static_cast<ThreadId>(Node * NodeThreadStride);
  ThreadId Hi = static_cast<ThreadId>(Lo + NodeThreadStride);
  std::vector<AccessId> Local;
  for (const AccessId &A : R.Order)
    if (A.Thread >= Lo && A.Thread < Hi)
      Local.push_back(AccessId(static_cast<ThreadId>(A.Thread - Lo), A.Count));
  Plan.Plan = ReplaySchedule::fromSolvedOrder(Plan.Log, std::move(Local),
                                              R.Stats);
  return Plan;
}
