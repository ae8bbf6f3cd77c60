//===- tests/core/RecorderHotPathTest.cpp - Lock-bit writes, epoch deferral ===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// Real-thread checks of the recorder's concurrent hot path:
///
///  * Write atomicity under the last-write lock bit: every write stores a
///    value naming its own AccessId, so each read knows exactly which write
///    it observed, and the recorded dependence of every read must name that
///    write — under contention and with 4x more threads than cores.
///  * Epoch deferral: a durable epoch never flushes while the writing
///    thread holds a program lock, yet the log still closes cleanly with
///    every span; a lock section that outlasts 4x the epoch threshold
///    flushes anyway; and interpreter runs end every thread outside every
///    lock, so deferral cannot starve flushing.
///
//===----------------------------------------------------------------------===//

#include "core/LightRecorder.h"

#include "bugs/BugPrograms.h"
#include "interp/Machine.h"
#include "interp/Scheduler.h"
#include "runtime/Runtime.h"
#include "support/Random.h"
#include "testlib/ProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

using namespace light;

namespace {

constexpr int NumVars = 4;

/// One observed read: the reader's access counter, the location, and the
/// value read (the packed AccessId of the write that stored it, 0 = none).
struct ObservedRead {
  ThreadId Thread;
  Counter C;
  LocationId Loc;
  uint64_t Value;
};

/// Runs \p Threads workers, each doing \p Ops reads (60%) and value-tagged
/// writes (40%) over NumVars shared variables, and checks every recorded
/// read against the value it observed. With O1 it also checks the other
/// side of each dependence: a read of another thread's write (A, c) means
/// the read ran between c and A's next write to the location, so no O1
/// span of A may run from c across that next write.
void recordAndCheckTaggedTraffic(LightOptions Opts, uint32_t Threads,
                                 int Ops) {
  LightRecorder Rec(Opts);
  Runtime RT(Rec);
  std::vector<std::unique_ptr<SharedVar>> Vars;
  for (int I = 0; I < NumVars; ++I)
    Vars.push_back(std::make_unique<SharedVar>(100 + I));

  std::vector<std::vector<ObservedRead>> Reads(Threads);
  std::vector<std::vector<std::pair<AccessId, LocationId>>> Writes(Threads);
  std::atomic<uint64_t> MalformedReads{0};
  std::atomic<bool> Go{false};
  std::vector<Runtime::Handle> Handles;
  for (uint32_t W = 0; W < Threads; ++W)
    Handles.push_back(RT.spawn(Runtime::MainThread, [&, W](ThreadId Self) {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      Rng R(0xabc0 + W);
      for (int I = 0; I < Ops; ++I) {
        SharedVar &V = *Vars[R.below(NumVars)];
        if (R.below(10) < 4) {
          // The write's own AccessId: this thread's next access counter.
          AccessId ThisWrite(Self, Rec.counterOf(Self) + 1);
          V.write(RT, Self, static_cast<int64_t>(ThisWrite.pack()));
          Writes[W].push_back({ThisWrite, V.location()});
          continue;
        }
        uint64_t Got = static_cast<uint64_t>(V.read(RT, Self));
        AccessId Src = AccessId::unpack(Got);
        // A torn or unpublished write would surface as a value no write
        // ever stored: a thread outside the workers or a zero counter.
        if (Got != 0 && (Src.Thread == 0 || Src.Thread > Threads ||
                         Src.Count == 0))
          MalformedReads.fetch_add(1);
        Reads[W].push_back({Self, Rec.counterOf(Self), V.location(), Got});
      }
    }));
  Go.store(true, std::memory_order_release);
  for (Runtime::Handle &H : Handles)
    RT.join(Runtime::MainThread, H);
  RecordingLog Log = Rec.finish(&RT.registry());
  EXPECT_EQ(MalformedReads.load(), 0u);

  std::map<std::pair<ThreadId, LocationId>, std::vector<const DepSpan *>>
      ByOwner;
  for (const DepSpan &S : Log.Spans)
    ByOwner[{S.Thread, S.Loc}].push_back(&S);
  // Counters of each thread's writes per location, ascending.
  std::map<std::pair<ThreadId, LocationId>, std::vector<Counter>> WriteCtrs;
  for (const auto &PerThread : Writes)
    for (const auto &[Id, Loc] : PerThread)
      WriteCtrs[{Id.Thread, Loc}].push_back(Id.Count);

  uint64_t Checked = 0, Failures = 0;
  for (const std::vector<ObservedRead> &PerThread : Reads)
    for (const ObservedRead &O : PerThread) {
      const DepSpan *Hit = nullptr;
      for (const DepSpan *S : ByOwner[{O.Thread, O.Loc}])
        if (S->First <= O.C && O.C <= S->Last)
          Hit = S;
      AccessId Got = AccessId::unpack(O.Value);
      bool Ok = false;
      if (Hit) {
        switch (Hit->Kind) {
        case SpanKind::Read:
          Ok = O.Value != 0 && Hit->Src == Got;
          break;
        case SpanKind::Init:
          Ok = O.Value == 0;
          break;
        case SpanKind::Own:
          // An O1 run: the read observed this thread's own earlier write
          // inside the same uninterleaved span.
          Ok = O.Value != 0 && Got.Thread == O.Thread &&
               Hit->First <= Got.Count && Got.Count < O.C;
          break;
        }
      }
      if (Ok && O.Value != 0 && Got.Thread != O.Thread) {
        // The writer's next write to the location after Got.
        const std::vector<Counter> &Ws = WriteCtrs[{Got.Thread, O.Loc}];
        auto Next = std::upper_bound(Ws.begin(), Ws.end(), Got.Count);
        for (const DepSpan *S : ByOwner[{Got.Thread, O.Loc}])
          if (S->Kind == SpanKind::Own && S->First <= Got.Count &&
              Next != Ws.end() && *Next <= S->Last)
            Ok = false; // the read interleaved an O1 span the writer kept
      }
      ++Checked;
      if (!Ok && ++Failures <= 5)
        ADD_FAILURE() << "read " << AccessId(O.Thread, O.C).str()
                      << " observed " << Got.str() << " but recorded "
                      << (Hit ? Hit->str() : std::string("no span"));
    }
  EXPECT_EQ(Failures, 0u) << "of " << Checked << " reads";
  EXPECT_GT(Checked, 0u);
}

uint32_t cores() {
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 2;
}

} // namespace

TEST(RecorderAtomicity, EveryReadNamesTheWriteItObserved) {
  // V_basic records every read's exact source; V_both adds O1 runs, whose
  // last-accessor bookkeeping is what the lock-bit ordering protects.
  uint32_t Threads = std::max(4u, cores());
  recordAndCheckTaggedTraffic(LightOptions::basic(), Threads, 20000);
  recordAndCheckTaggedTraffic(LightOptions::both(), Threads, 20000);
}

TEST(RecorderAtomicity, OversubscribedThreadsCompleteAndStayExact) {
  // 4x more writers than cores: lock-bit holders get preempted mid-section,
  // which the bounded spin must survive by yielding.
  recordAndCheckTaggedTraffic(LightOptions::both(), 4 * cores(), 3000);
}

namespace {

/// Set while the calling thread holds a TrackedMutex's underlying lock.
thread_local bool InsideLock = false;

/// InstrumentedMutex with the test's own view of when the program lock is
/// physically held: from inside the acquire RMW's Perform to just before
/// the unlock, so a flush during either ghost access counts as inside.
class TrackedMutex {
  std::mutex M;
  LocMeta Meta;
  LocationId Loc;

public:
  explicit TrackedMutex(uint64_t Id) : Loc(loc::make(LocationKind::Lock, Id)) {}

  void lock(Runtime &RT, ThreadId T) {
    RT.hook().onRmw(T, Loc, Meta, [&] {
      M.lock();
      InsideLock = true;
    });
  }
  void unlock(Runtime &RT, ThreadId T) {
    RT.hook().onWrite(T, Loc, Meta, [] {});
    InsideLock = false;
    M.unlock();
  }
};

} // namespace

TEST(EpochDeferral, NoDurableSegmentWhileTheWriterHoldsALock) {
  std::string Path = makeTempPath("deferral");
  LightOptions Opts;
  Opts.EpochSpans = 8;
  Opts.DurableLogPath = Path;
  LightRecorder Rec(Opts);
  std::atomic<uint64_t> FlushesInsideLock{0}, Flushes{0};
  Rec.debugOnEpochFlush([&](ThreadId) {
    Flushes.fetch_add(1);
    if (InsideLock)
      FlushesInsideLock.fetch_add(1);
  });
  Runtime RT(Rec);
  TrackedMutex Locks[2] = {TrackedMutex(1), TrackedMutex(2)};
  std::vector<std::unique_ptr<SharedVar>> Vars;
  for (int I = 0; I < 6; ++I)
    Vars.push_back(std::make_unique<SharedVar>(200 + I));

  std::vector<Runtime::Handle> Handles;
  for (uint32_t W = 0; W < 4; ++W)
    Handles.push_back(RT.spawn(Runtime::MainThread, [&, W](ThreadId Self) {
      Rng R(0xdef0 + W);
      for (int I = 0; I < 4000; ++I) {
        if (R.below(2)) {
          // Lock section: a read-modify-write of a lock-protected variable
          // and a recorded syscall. Spans close inside a lock only when
          // other threads interleave; the syscall makes epochs fall due
          // inside locks even when the host runs the workers one by one.
          uint64_t K = R.below(2);
          Locks[K].lock(RT, Self);
          SharedVar &V = *Vars[K];
          V.write(RT, Self, V.read(RT, Self) + 1);
          RT.syscall(Self, [I] { return static_cast<uint64_t>(I); });
          Locks[K].unlock(RT, Self);
        } else {
          SharedVar &V = *Vars[2 + R.below(4)];
          if (R.below(2))
            V.write(RT, Self, I);
          else
            V.read(RT, Self);
        }
      }
    }));
  for (Runtime::Handle &H : Handles)
    RT.join(Runtime::MainThread, H);
  RecordingLog Log = Rec.finish(&RT.registry());

  EXPECT_GT(Flushes.load(), 0u);
  EXPECT_GT(Rec.epochsDeferred(), 0u) << "no epoch fell due inside a lock";
  EXPECT_EQ(FlushesInsideLock.load(), 0u);
  for (ThreadId T = 0; T < 8; ++T)
    EXPECT_EQ(Rec.heldLockDepth(T), 0u) << "thread " << T;

  RecordingLog Reloaded;
  LogLoadReport Rep;
  ASSERT_TRUE(Reloaded.load(Path, Rep));
  EXPECT_TRUE(Rep.CleanClose);
  auto Key = [](const DepSpan &S) {
    return std::make_tuple(S.Thread, S.First, S.Loc, S.Last,
                           static_cast<int>(S.Kind), S.Src.pack());
  };
  std::vector<std::tuple<ThreadId, Counter, LocationId, Counter, int,
                         uint64_t>>
      Want, Got;
  for (const DepSpan &S : Log.Spans)
    Want.push_back(Key(S));
  for (const DepSpan &S : Reloaded.Spans)
    Got.push_back(Key(S));
  std::sort(Want.begin(), Want.end());
  std::sort(Got.begin(), Got.end());
  EXPECT_EQ(Got, Want);
  auto SyscallKeys = [](const RecordingLog &L) {
    std::vector<std::pair<ThreadId, uint64_t>> Keys;
    for (const SyscallRecord &C : L.Syscalls)
      Keys.push_back({C.Thread, C.Value});
    std::stable_sort(Keys.begin(), Keys.end(),
                     [](const auto &A, const auto &B) {
                       return A.first < B.first;
                     });
    return Keys;
  };
  EXPECT_EQ(SyscallKeys(Reloaded), SyscallKeys(Log));
  EXPECT_EQ(Reloaded.FinalCounters, Log.FinalCounters);
  std::remove(Path.c_str());
}

TEST(EpochDeferral, LongLockSectionFlushesAtTheCap) {
  // Thread 1 stays inside a lock while its reads of thread 2's writes keep
  // closing spans: its epoch falls due at EpochSpans pending and is
  // deferred, flushes in place once 4x EpochSpans is pending, and after
  // the release the deferred rest flushes at thread 1's next access.
  std::string Path = makeTempPath("defercap");
  LightOptions Opts;
  Opts.EpochSpans = 2;
  Opts.DurableLogPath = Path;
  LightRecorder Rec(Opts);
  std::vector<std::pair<ThreadId, uint32_t>> Flushes; // (thread, depth)
  Rec.debugOnEpochFlush(
      [&](ThreadId T) { Flushes.push_back({T, Rec.heldLockDepth(T)}); });
  LocMeta LockMeta, XMeta;
  LocationId Lock = loc::make(LocationKind::Lock, 1), X = loc::var(1);

  Rec.onRmw(1, Lock, LockMeta, [] {});
  EXPECT_EQ(Rec.heldLockDepth(1), 1u);
  // Read k closes read k-1's span: 8 pending (the cap) after read 9.
  for (int K = 1; K <= 9; ++K) {
    Rec.onWrite(2, X, XMeta, [] {});
    Rec.onRead(1, X, XMeta, [] {});
  }
  ASSERT_EQ(Flushes.size(), 1u);
  EXPECT_EQ(Flushes[0], std::make_pair(ThreadId(1), 1u));
  for (int K = 10; K <= 12; ++K) { // falls due again at read 11
    Rec.onWrite(2, X, XMeta, [] {});
    Rec.onRead(1, X, XMeta, [] {});
  }
  EXPECT_EQ(Flushes.size(), 1u);
  Rec.onWrite(1, Lock, LockMeta, [] {}); // release: still no flush
  EXPECT_EQ(Rec.heldLockDepth(1), 0u);
  EXPECT_EQ(Flushes.size(), 1u);
  Rec.onRead(1, X, XMeta, [] {}); // first lock-free access
  ASSERT_EQ(Flushes.size(), 2u);
  EXPECT_EQ(Flushes[1], std::make_pair(ThreadId(1), 0u));
  EXPECT_EQ(Rec.epochsDeferred(), 2u);

  Rec.finish();
  RecordingLog Reloaded;
  LogLoadReport Rep;
  ASSERT_TRUE(Reloaded.load(Path, Rep));
  EXPECT_TRUE(Rep.CleanClose);
  std::remove(Path.c_str());
}

namespace {

/// Records \p Prog under RandomScheduler(\p Seed) with a tiny epoch
/// threshold; returns true when the run completed, after checking that
/// every thread ended with held-lock depth 0.
bool recordEndsOutsideLocks(const mir::Program &Prog, uint64_t Seed,
                            const std::string &Name) {
  std::string Path = makeTempPath("depth");
  LightOptions Opts;
  Opts.EpochSpans = 2;
  Opts.DurableLogPath = Path;
  LightRecorder Rec(Opts);
  Machine M(Prog, Rec);
  Rec.attachRegistry(&M.registry());
  M.seedEnvironment(Seed ^ 0x5a5a);
  RandomScheduler Sched(Seed);
  bool Completed = M.run(Sched).Completed;
  if (Completed) {
    for (uint32_t T = 0; T < MaxThreads; ++T)
      EXPECT_EQ(Rec.heldLockDepth(static_cast<ThreadId>(T)), 0u)
          << Name << " seed " << Seed << " thread " << T;
  }
  Rec.finish();
  std::remove(Path.c_str());
  return Completed;
}

} // namespace

TEST(EpochDeferral, InterpreterThreadsEndOutsideEveryLock) {
  std::vector<bugs::BugBenchmark> Kernels = bugs::makeBugSuite();
  for (bugs::BugBenchmark &B : bugs::makeSyncBugSuite())
    Kernels.push_back(std::move(B));
  for (const bugs::BugBenchmark &B : Kernels) {
    int Completed = 0;
    for (uint64_t Seed = 1; Seed <= 12; ++Seed)
      Completed += recordEndsOutsideLocks(B.Prog, Seed, B.Name);
    EXPECT_GT(Completed, 0) << B.Name << ": no completed run was checked";
  }
  Rng R(0x5c1);
  int Completed = 0;
  for (int I = 0; I < 24; ++I) {
    mir::Program P =
        testgen::randomProgram(R, testgen::GenConfig::syncPrimitives());
    Completed += recordEndsOutsideLocks(P, 1 + I, "syncPrimitives#" +
                                                      std::to_string(I));
  }
  EXPECT_GT(Completed, 0);
}
