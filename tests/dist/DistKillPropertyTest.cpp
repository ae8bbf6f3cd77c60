//===- tests/dist/DistKillPropertyTest.cpp - Random node-kill property ----===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// The node-kill property: for random multi-node token-ring programs
/// (testlib/ProgramGen.h, randomNodeProgram) under a random distributed
/// fault — none, drop/dup/reorder on the transport, or SIGKILL of a
/// random node at a random lifecycle stage — the pipeline must always end
/// structured:
///
///   * salvage loads (at most one node is attacked, the rest leave logs),
///   * the causal-cut merge solves,
///   * every surviving prefix replays with zero divergence,
///   * FullSchedule appears only when nothing was cut, and a fault-free
///     run always earns it.
///
/// A PartialCut is required exactly when spans were dropped; a wrong
/// schedule — a replay that diverges — is the one outcome that can never
/// appear. Honors LIGHT_TEST_SEED / LIGHT_TEST_ITERS; failures print a
/// copy-pastable repro line. Runs under the ASan+UBSan and TSan presets
/// (label `san`).
///
//===----------------------------------------------------------------------===//

#include "DistTestUtil.h"

#include "mir/Parser.h"
#include "support/FaultInjection.h"
#include "testlib/ProgramGen.h"
#include "testlib/TestEnv.h"

#include <csignal>
#include <gtest/gtest.h>

using namespace light;
using namespace light::disttest;

namespace {

struct DrawnFault {
  std::string Spec; ///< empty = no fault
  bool Kill = false;
  uint32_t Victim = 0;
};

DrawnFault drawFault(Rng &R, uint32_t Nodes, uint64_t Seed) {
  DrawnFault F;
  switch (R.below(7)) {
  case 0:
    break; // fault-free control run
  case 1:
    F.Spec = "dist.drop_msg=" + std::to_string(1 + R.below(4)) +
             ",seed=" + std::to_string(Seed);
    break;
  case 2:
    F.Spec = "dist.dup_msg=" + std::to_string(1 + R.below(4)) +
             ",seed=" + std::to_string(Seed);
    break;
  case 3:
    F.Spec = "dist.reorder=" + std::to_string(1 + R.below(4)) +
             ",seed=" + std::to_string(Seed);
    break;
  default: {
    static const char *Sites[] = {"dist.kill_node.start",
                                  "dist.kill_node.mid",
                                  "dist.kill_node.flush"};
    F.Kill = true;
    F.Victim = static_cast<uint32_t>(R.below(Nodes));
    F.Spec = std::string(Sites[R.below(3)]) + "=" +
             std::to_string(F.Victim + 1);
    break;
  }
  }
  return F;
}

class DistKillProperty : public ::testing::TestWithParam<int> {
protected:
  void TearDown() override { fault::Injector::global().reset(); }
};

} // namespace

TEST_P(DistKillProperty, SalvagedCutReplaysFaithfully) {
  uint64_t Seed = testenv::effectiveSeed(static_cast<uint64_t>(GetParam()));
  SCOPED_TRACE(testenv::repro(Seed));
  Rng R(Seed * 0x2545f4914f6cdd1dull + 11);

  uint32_t Nodes = 0;
  mir::Program Prog =
      testgen::randomNodeProgram(R, testgen::NodeGenConfig(), Nodes);
  ASSERT_EQ(Prog.verify(), "") << Prog.str();

  // Channel directives and endpoint ops survive print -> parse, so every
  // shrinker/corpus artifact of a multi-node program stays loadable.
  mir::ParseResult PR = mir::parseProgram(Prog.str());
  ASSERT_TRUE(PR.Ok) << PR.Error;
  EXPECT_EQ(PR.Prog.str(), Prog.str());

  DrawnFault F = drawFault(R, Nodes, Seed);
  SCOPED_TRACE("fault: " + (F.Spec.empty() ? "none" : F.Spec) + ", nodes " +
               std::to_string(Nodes));
  if (!F.Spec.empty()) {
    ASSERT_EQ(fault::Injector::global().configure(F.Spec), "");
  }

  dist::DistOptions Opts;
  Opts.Nodes = Nodes;
  Opts.Seed = Seed;
  Opts.LogBase = makeTempPath("distprop");
  Opts.EpochSpans = 2;
  dist::DistRecordResult DR = dist::runDistRecord(Prog, Opts);
  // Faults target the recording children only; salvage and replay run
  // disarmed.
  fault::Injector::global().reset();
  ASSERT_TRUE(DR.Started) << DR.Error;

  if (F.Kill) {
    EXPECT_TRUE(DR.Nodes[F.Victim].Signaled)
        << DR.Nodes[F.Victim].str();
    EXPECT_EQ(DR.Nodes[F.Victim].Signal, SIGKILL);
  }

  dist::NodeSetLoader Loader;
  dist::MergeResult MR = Loader.load(Opts.LogBase, Nodes);
  ASSERT_TRUE(MR.Loaded) << MR.Error;
  ASSERT_TRUE(Loader.solve(MR)) << "cut admitted an unsolvable system: "
                                << MR.Error;

  // FullSchedule iff the cut dropped nothing anywhere.
  if (MR.FullSchedule) {
    EXPECT_TRUE(MR.Cut.empty());
  }
  if (F.Spec.empty()) {
    for (uint32_t N = 0; N < Nodes; ++N)
      EXPECT_TRUE(DR.Nodes[N].completedCleanly())
          << "node " << N << ": " << DR.Nodes[N].str();
    EXPECT_TRUE(MR.FullSchedule)
        << "fault-free run did not earn a full schedule";
  }

  for (uint32_t N = 0; N < Nodes; ++N) {
    const dist::NodeSalvage &NS = MR.Nodes[N];
    if (!NS.Epoch.Loaded || !NS.Epoch.UsablePrefix)
      continue;
    mir::Program NodeProg;
    std::string Err;
    ASSERT_TRUE(dist::makeNodeProgram(Prog, N, NodeProg, Err)) << Err;
    dist::NodeReplayPlan NP = Loader.projectNode(MR, N);
    ASSERT_TRUE(NP.Plan.ok())
        << "node " << N << " plan: " << NP.Plan.error();
    ReplayChannelTransport Redelivery(NP.Messages);
    ReplayDirector Director(NP.Plan, /*RealThreads=*/false, NP.Validate);
    Machine M(NodeProg, Director);
    M.prepareReplay(NP.Log.Spawns);
    M.setChannelTransport(&Redelivery, N);
    RunResult RR = M.runReplay(Director);
    EXPECT_FALSE(Director.failed())
        << "node " << N << " diverged: " << Director.divergenceInfo().str();
    EXPECT_NE(RR.Bug.What, BugReport::Kind::ReplayDivergence)
        << "node " << N << ": " << RR.Bug.str();
    // Clean evidence must validate; a clean full run also completes.
    if (MR.FullSchedule) {
      EXPECT_TRUE(NP.Validate);
      EXPECT_TRUE(RR.Completed || RR.Bug.happened())
          << "node " << N << " replay went nowhere";
    }
  }
  removeNodeLogs(Opts.LogBase, Nodes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistKillProperty,
                         ::testing::Range(1, 1 + testenv::iters(8)));
