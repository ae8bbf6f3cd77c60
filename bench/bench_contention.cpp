//===- bench/bench_contention.cpp - Contention-scaling recorder bench ------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// Contention-scaling stress bench: drives 2..64 real threads through a
/// fixed per-thread budget of instrumented SharedVar ops against every
/// recording scheme (null / Light / Leap / Stride / Chimera) and reports a
/// threads x ns/op table with the scheme-specific contention signals the
/// recorders expose — Light's optimistic-read retries and last-write
/// lock-bit misses, Stride's version-validation retries, Leap's sampled
/// shard-lock misses. This is the measurement ROADMAP's "recorder
/// throughput at real core counts" direction starts from: on a multi-core
/// host the Leap/Stride curves bend up with threads while Light's stays
/// near-flat (the paper's Section 5.2 story); on a 1-core host the kernel
/// serializes the workers and the curves compress.
///
/// Per-worker hardware profiles (cycles, instructions, cache misses,
/// context switches) come from obs::PerfCounters and degrade gracefully to
/// the TSC/steady-clock fallback where perf_event_open is unavailable; the
/// `perf_hw` column says which source produced the numbers.
///
/// Flags: --threads 2,4,8 --ops N --locations N --write-pct P
///        --recorders light,leap,... --json [file] --fast
///
//===----------------------------------------------------------------------===//

#include "baselines/ChimeraEngine.h"
#include "baselines/LeapRecorder.h"
#include "baselines/StrideRecorder.h"
#include "core/LightRecorder.h"
#include "obs/Args.h"
#include "obs/BenchReport.h"
#include "obs/PerfCounters.h"
#include "runtime/Runtime.h"
#include "support/Table.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

using namespace light;

namespace {

/// One recorder's results for one thread count.
struct CellResult {
  double ElapsedNanos = 0;
  uint64_t ReadRetries = 0;       ///< optimistic/version retries
  uint64_t LockCollisions = 0;    ///< lock misses the recorder counted
  uint64_t CollisionScale = 64;   ///< misses per count (1-in-64 sampling)
  obs::PerfSample Perf;           ///< summed over workers
  bool PerfHardware = false;      ///< all workers on perf_event_open
};

/// xorshift64: deterministic per-thread access pattern, no libc rand state.
uint64_t nextRand(uint64_t &X) {
  X ^= X << 13;
  X ^= X >> 7;
  X ^= X << 17;
  return X;
}

struct Workload {
  uint32_t Threads = 2;
  uint64_t OpsPerThread = 100000;
  uint64_t Locations = 64;
  uint32_t WritePct = 50;
};

/// Runs \p W's access pattern against \p Hook and reports timing plus the
/// summed per-worker hardware profile. Contention counters are read by the
/// caller from the concrete recorder afterwards.
CellResult runWorkload(const Workload &W, AccessHook &Hook) {
  Runtime RT(Hook);
  std::vector<std::unique_ptr<SharedVar>> Vars;
  Vars.reserve(W.Locations);
  for (uint64_t I = 0; I < W.Locations; ++I)
    Vars.push_back(std::make_unique<SharedVar>(/*Id=*/I + 1, /*Initial=*/0));

  std::atomic<uint32_t> Ready{0};
  std::atomic<bool> Go{false};
  std::mutex SumM;
  CellResult R;
  R.PerfHardware = true;

  std::vector<Runtime::Handle> Handles;
  Handles.reserve(W.Threads);
  for (uint32_t I = 0; I < W.Threads; ++I) {
    Handles.push_back(RT.spawn(Runtime::MainThread, [&, I](ThreadId T) {
      // One counter group per worker thread; opened before the barrier so
      // the measured region pays no setup.
      obs::PerfCounters PC;
      uint64_t Rng = 0x9e3779b97f4a7c15ull ^ (I + 1);
      Ready.fetch_add(1, std::memory_order_acq_rel);
      while (!Go.load(std::memory_order_acquire)) {
      }
      PC.reset();
      for (uint64_t Op = 0; Op < W.OpsPerThread; ++Op) {
        uint64_t X = nextRand(Rng);
        SharedVar &V = *Vars[X % W.Locations];
        if ((X >> 32) % 100 < W.WritePct)
          V.write(RT, T, static_cast<int64_t>(Op));
        else
          V.read(RT, T);
      }
      obs::PerfSample S = PC.read();
      std::lock_guard<std::mutex> Guard(SumM);
      R.Perf.Cycles += S.Cycles;
      R.Perf.Instructions += S.Instructions;
      R.Perf.CacheMisses += S.CacheMisses;
      R.Perf.ContextSwitches += S.ContextSwitches;
      R.Perf.WallNanos += S.WallNanos;
      R.PerfHardware = R.PerfHardware && S.Hardware;
    }));
  }

  while (Ready.load(std::memory_order_acquire) < W.Threads) {
  }
  auto Begin = std::chrono::steady_clock::now();
  Go.store(true, std::memory_order_release);
  for (Runtime::Handle &H : Handles)
    RT.join(Runtime::MainThread, H);
  auto End = std::chrono::steady_clock::now();
  R.ElapsedNanos = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(End - Begin)
          .count());
  return R;
}

/// Runs one (recorder, workload) cell, including the recorder's finish()
/// so its telemetry counters reach the registry snapshot.
CellResult runRecorder(const std::string &Name, const Workload &W) {
  if (Name == "null") {
    NullHook Hook;
    return runWorkload(W, Hook);
  }
  if (Name == "light") {
    LightRecorder Rec(LightOptions::both());
    CellResult R = runWorkload(W, Rec);
    R.ReadRetries = Rec.readRetries();
    R.LockCollisions = Rec.stripeContentions();
    R.CollisionScale = 1; // every lock-bit miss is counted
    Rec.finish();
    return R;
  }
  if (Name == "leap") {
    LeapRecorder Rec;
    CellResult R = runWorkload(W, Rec);
    R.LockCollisions = Rec.lockContentions();
    Rec.finish();
    return R;
  }
  if (Name == "stride") {
    StrideRecorder Rec;
    CellResult R = runWorkload(W, Rec);
    R.ReadRetries = Rec.readRetries();
    R.LockCollisions = Rec.lockContentions();
    Rec.finish();
    return R;
  }
  if (Name == "chimera") {
    ChimeraRecorder Rec;
    CellResult R = runWorkload(W, Rec);
    Rec.finish();
    return R;
  }
  std::fprintf(stderr, "bench_contention: unknown recorder '%s'\n",
               Name.c_str());
  std::exit(2);
}

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  std::string Cur;
  for (char C : S) {
    if (C == ',') {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Out.push_back(Cur);
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  obs::ArgList Args(argc, argv,
                    {"json", "threads", "ops", "locations", "write-pct",
                     "recorders"},
                    {"fast"});
  for (const std::string &U : Args.unknown()) {
    std::fprintf(stderr, "bench_contention: unknown flag %s\n", U.c_str());
    return 2;
  }

  std::string ThreadSpec =
      Args.get("threads", Args.has("fast") ? "2,4" : "2,4,8,16");
  Workload W;
  W.OpsPerThread = std::stoull(
      Args.get("ops", Args.has("fast") ? "20000" : "200000"));
  W.Locations = std::stoull(Args.get("locations", "64"));
  W.WritePct = static_cast<uint32_t>(std::stoul(Args.get("write-pct", "50")));
  if (W.Locations == 0 || W.WritePct > 100) {
    std::fprintf(stderr, "bench_contention: need --locations >= 1 and "
                         "--write-pct in [0,100]\n");
    return 2;
  }

  std::vector<uint32_t> ThreadCounts;
  for (const std::string &T : splitList(ThreadSpec)) {
    unsigned long N = std::stoul(T);
    if (N < 1 || N > 64) {
      std::fprintf(stderr,
                   "bench_contention: thread count %lu out of [1,64]\n", N);
      return 2;
    }
    ThreadCounts.push_back(static_cast<uint32_t>(N));
  }
  std::vector<std::string> Recorders =
      splitList(Args.get("recorders", "null,light,leap,stride,chimera"));

  std::printf("Contention scaling: %llu ops/thread over %llu locations, "
              "%u%% writes\n",
              static_cast<unsigned long long>(W.OpsPerThread),
              static_cast<unsigned long long>(W.Locations), W.WritePct);
  std::printf("(On a 1-core host the kernel serializes workers; the "
              "scaling story needs real cores.)\n\n");

  Table T({"recorder", "threads", "ns/op", "Mops/s", "retries",
           "collisions", "cyc/op", "ctx-sw", "perf"});
  obs::BenchReport Report("contention");
  bool ShapeHolds = true;

  for (const std::string &Name : Recorders) {
    uint32_t PrevThreads = 0;
    for (uint32_t Threads : ThreadCounts) {
      Workload Cell = W;
      Cell.Threads = Threads;
      CellResult R = runRecorder(Name, Cell);
      double TotalOps =
          static_cast<double>(W.OpsPerThread) * static_cast<double>(Threads);
      // Per-op latency each thread experiences: wall time over the
      // per-thread budget. Grows with contention even when aggregate
      // throughput holds steady.
      double NsPerOp = R.ElapsedNanos / static_cast<double>(W.OpsPerThread);
      double OpsPerSec =
          R.ElapsedNanos > 0 ? TotalOps / (R.ElapsedNanos * 1e-9) : 0;
      double CyclesPerOp =
          TotalOps > 0 ? static_cast<double>(R.Perf.Cycles) / TotalOps : 0;
      double InstrPerOp =
          TotalOps > 0 ? static_cast<double>(R.Perf.Instructions) / TotalOps
                       : 0;
      ShapeHolds = ShapeHolds && NsPerOp > 0 && Threads > PrevThreads;
      PrevThreads = Threads;

      T.addRow({Name, std::to_string(Threads), Table::fmt(NsPerOp),
                Table::fmt(OpsPerSec / 1e6), std::to_string(R.ReadRetries),
                std::to_string(R.LockCollisions * R.CollisionScale),
                Table::fmt(CyclesPerOp),
                std::to_string(R.Perf.ContextSwitches),
                R.PerfHardware ? "hw" : "fallback"});
      Report.row()
          .set("recorder", Name)
          .set("threads", static_cast<uint64_t>(Threads))
          .set("ops", W.OpsPerThread)
          .set("write_pct", static_cast<uint64_t>(W.WritePct))
          .set("locations", W.Locations)
          .set("ns_per_op", NsPerOp)
          .set("ops_per_sec", OpsPerSec)
          .set("read_retries", R.ReadRetries)
          .set("lock_collisions_sampled", R.LockCollisions)
          .set("cycles_per_op", CyclesPerOp)
          .set("instructions_per_op", InstrPerOp)
          .set("cache_misses", R.Perf.CacheMisses)
          .set("context_switches", R.Perf.ContextSwitches)
          .set("perf_hw", R.PerfHardware);
      std::fflush(stdout);
    }
  }
  std::printf("%s\n", T.render().c_str());
  std::printf("collisions: lock misses (Light's last-write lock bit, "
              "every miss; Leap/Stride sampled 1-in-64, scaled back up);\n"
              "retries: Light optimistic-read / Stride "
              "version-validation retries. Shape check (all cells timed, "
              "thread counts ascending): %s\n",
              ShapeHolds ? "HOLDS" : "VIOLATED");

  if (Args.has("json")) {
    Report.aggregate("recorders_run", static_cast<double>(Recorders.size()));
    Report.aggregate("thread_points", static_cast<double>(ThreadCounts.size()));
    Report.ok(ShapeHolds);
    Report.withMetrics();
    if (!Report.write(Args.get("json")))
      return 1;
  }
  return ShapeHolds ? 0 : 1;
}
