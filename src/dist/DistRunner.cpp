//===- dist/DistRunner.cpp - Multi-node recording harness -----------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "dist/DistRunner.h"

#include "core/LightRecorder.h"
#include "dist/NodeSet.h"
#include "interp/Machine.h"
#include "runtime/ChannelTransport.h"
#include "support/FaultInjection.h"

#include <csignal>
#include <cstdio>

#include <sys/wait.h>
#include <unistd.h>

using namespace light;
using namespace light::dist;

std::string NodeOutcome::str() const {
  if (!Forked)
    return "fork failed";
  if (Signaled)
    return "killed by signal " + std::to_string(Signal);
  if (ExitCode == 0)
    return "completed cleanly";
  if (ExitCode == 42)
    return "crashed at a bug (log flushed crash-handler style)";
  return "exited with code " + std::to_string(ExitCode);
}

bool DistRecordResult::allByProtocol() const {
  for (const NodeOutcome &N : Nodes)
    if (!N.Forked || N.Signaled || (N.ExitCode != 0 && N.ExitCode != 42))
      return false;
  return true;
}

bool dist::makeNodeProgram(const mir::Program &Prog, uint32_t Node,
                           mir::Program &Out, std::string &Err) {
  mir::FuncId NodeFn = Prog.findFunction("node");
  if (NodeFn == ~0u) {
    Err = "multi-node programs must define a unary function named 'node'";
    return false;
  }
  if (Prog.function(NodeFn).NumParams != 1) {
    Err = "'node' must take exactly one parameter (the node index)";
    return false;
  }
  Out = Prog;
  mir::Function Wrap;
  Wrap.Name = "__node_main";
  Wrap.NumParams = 0;
  Wrap.NumRegs = 1;
  mir::Instr Idx;
  Idx.Op = mir::Opcode::ConstInt;
  Idx.A = 0;
  Idx.Imm = static_cast<int64_t>(Node);
  mir::Instr Call;
  Call.Op = mir::Opcode::Call;
  Call.A = mir::NoReg;
  Call.Imm = static_cast<int64_t>(NodeFn);
  Call.Args = {0};
  mir::Instr Ret;
  Ret.Op = mir::Opcode::Ret;
  Ret.A = mir::NoReg;
  Wrap.Body = {Idx, Call, Ret};
  Out.Entry = static_cast<mir::FuncId>(Out.Functions.size());
  Out.Functions.push_back(std::move(Wrap));
  return true;
}

namespace {

/// Wraps the live PipeTransport with the node-kill fault site: the
/// dist.kill_node.mid target dies after completing MidKillAfterOps channel
/// endpoint operations, leaving a durable prefix and a torn tail.
class KillSwitchTransport : public ChannelTransport {
public:
  KillSwitchTransport(ChannelTransport &Inner, uint32_t Node)
      : Inner(Inner) {
    fault::Injector &Inj = fault::Injector::global();
    MidArmed = Inj.armed("dist.kill_node.mid") &&
               Inj.param("dist.kill_node.mid", 0) == Node + 1;
  }

  bool trySend(ThreadId T, uint32_t Chan, int64_t Value,
               uint64_t &Seq) override {
    bool Ok = Inner.trySend(T, Chan, Value, Seq);
    if (Ok)
      noteOp();
    return Ok;
  }
  bool tryRecv(ThreadId T, uint32_t Chan, int64_t &Value,
               uint64_t &Seq) override {
    bool Ok = Inner.tryRecv(T, Chan, Value, Seq);
    if (Ok)
      noteOp();
    return Ok;
  }
  void setCapacity(uint32_t Chan, uint64_t Capacity) override {
    Inner.setCapacity(Chan, Capacity);
  }
  void backoff(uint64_t Attempt) override { Inner.backoff(Attempt); }

private:
  void noteOp() {
    if (MidArmed && ++Ops >= MidKillAfterOps)
      ::raise(SIGKILL);
  }
  ChannelTransport &Inner;
  bool MidArmed = false;
  uint64_t Ops = 0;
};

/// The whole life of one forked node. Exit codes: 0 = run completed and
/// the log closed cleanly, 42 = the run hit a bug and the log was flushed
/// crash-handler style (no clean-close marker), 3 = infrastructure
/// failure (bad program / durable write failure).
[[noreturn]] void nodeChild(const mir::Program &Prog, uint32_t Node,
                            const DistOptions &Opts, PipeFabric &Fabric) {
  fault::Injector &Inj = fault::Injector::global();
  if (Inj.armed("dist.kill_node.start") &&
      Inj.param("dist.kill_node.start", 0) == Node + 1)
    ::raise(SIGKILL); // dies before any log exists

  mir::Program NodeProg;
  std::string Err;
  if (!makeNodeProgram(Prog, Node, NodeProg, Err))
    ::_exit(3);

  std::string LogPath = nodeLogPath(Opts.LogBase, Node);
  LightOptions LO;
  LO.EpochSpans = Opts.EpochSpans ? Opts.EpochSpans : 4;
  LO.EpochMs = Opts.EpochMs;
  LO.DurableLogPath = LogPath;
  LightRecorder Rec(LO);
  Rec.attachMessageLog(messageLogPath(LogPath));

  PipeTransport Pipes(Fabric);
  KillSwitchTransport Transport(Pipes, Node);

  Machine M(NodeProg, Rec);
  Rec.attachRegistry(&M.registry());
  M.setChannelTransport(&Transport, Node);
  // Per-node seed split so environment nondeterminism differs across the
  // node set while staying reproducible from one top-level seed.
  M.seedEnvironment((Opts.Seed + Node * 0x9e3779b9ull) ^ 0x5a5a);
  RandomScheduler Sched(Opts.Seed + Node);
  RunResult R = M.run(Sched, Opts.MaxInstructions);

  if (Inj.armed("dist.kill_node.flush") &&
      Inj.param("dist.kill_node.flush", 0) == Node + 1)
    ::raise(SIGKILL); // epoch prefix durable; final segment lost

  if (R.Completed) {
    Rec.finish(&M.registry());
    const DurableLogWriter *DL = Rec.durableLog();
    if (!DL || !DL->ok() || Rec.overflowed())
      ::_exit(3);
    ::_exit(0);
  }
  // The node died at a bug (including send/recv starvation after the
  // bounded retry): persist crash-handler style and report via the code.
  Rec.crashFlush();
  ::_exit(42);
}

} // namespace

DistRecordResult dist::runDistRecord(const mir::Program &Prog,
                                     const DistOptions &Opts) {
  DistRecordResult R;
  if (Opts.Nodes == 0 || Opts.Nodes > MaxNodes) {
    R.Error = "node count must be in [1, " + std::to_string(MaxNodes) + "]";
    return R;
  }
  if (Opts.LogBase.empty()) {
    R.Error = "multi-node recording needs a log base path";
    return R;
  }
  {
    // Validate the node convention once in the parent so a bad program is
    // one error, not N cryptic child exits.
    mir::Program Probe;
    if (!makeNodeProgram(Prog, 0, Probe, R.Error))
      return R;
  }

  std::string Err;
  std::unique_ptr<PipeFabric> Fabric =
      PipeFabric::create(Prog.Channels.size(), Err);
  if (!Fabric) {
    R.Error = "channel fabric: " + Err;
    return R;
  }

  // Stale logs from a previous run must not masquerade as this run's
  // evidence (a kill_node.start child writes nothing at all).
  for (uint32_t N = 0; N < Opts.Nodes; ++N) {
    std::string LogPath = nodeLogPath(Opts.LogBase, N);
    std::remove(LogPath.c_str());
    std::remove(messageLogPath(LogPath).c_str());
  }

  R.Nodes.resize(Opts.Nodes);
  std::vector<pid_t> Pids(Opts.Nodes, -1);
  for (uint32_t N = 0; N < Opts.Nodes; ++N) {
    pid_t Pid = ::fork();
    if (Pid < 0) {
      R.Error = "fork failed for node " + std::to_string(N);
      break;
    }
    if (Pid == 0)
      nodeChild(Prog, N, Opts, *Fabric); // never returns
    Pids[N] = Pid;
    R.Nodes[N].Forked = true;
  }
  R.Started = true;

  for (uint32_t N = 0; N < Opts.Nodes; ++N) {
    if (Pids[N] < 0)
      continue;
    int Status = 0;
    if (::waitpid(Pids[N], &Status, 0) != Pids[N]) {
      R.Nodes[N].Forked = false;
      continue;
    }
    if (WIFSIGNALED(Status)) {
      R.Nodes[N].Signaled = true;
      R.Nodes[N].Signal = WTERMSIG(Status);
    } else if (WIFEXITED(Status)) {
      R.Nodes[N].ExitCode = WEXITSTATUS(Status);
    }
  }
  return R;
}
