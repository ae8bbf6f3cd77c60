//===- lightbench/src/RecordMt.cpp - Multi-threaded recording workload ----===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// record-mt: one real thread per core (2..8) runs a STAMP/server-like
/// kernel under LightRecorder V_both into a durable, compressed LIGHT003
/// epoch log flushed by span count. About 70% of the unguarded operations
/// are reads, bursts on one variable are short (1-8 operations), and 20%
/// of the operations are lock sections over consistently guarded
/// variables (the O2 path). Each thread replays an operation tape the
/// set-up generated from the seed, so the timed region holds the recorder
/// hot path and nothing else the benchmark could vary.
///
/// Work item: one recorded shared access. Latency: one recording, from the
/// release of the worker threads to finish() closing the durable log.
/// Check: the durable log reloads as LIGHT003, closed cleanly, and its
/// per-thread counters equal the accesses the tapes issued. (An offline
/// solve of a real-thread log this size does not finish in minutes, so
/// replay is not the check here; reproduce-dense covers it.)
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/LightRecorder.h"
#include "runtime/Runtime.h"
#include "support/FaultInjection.h"
#include "support/Random.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

using namespace light;

namespace lb {
namespace {

// Kernel profile.
constexpr int NumVars = 64;
constexpr int NumGuarded = 16;
constexpr int NumLocks = 4;
constexpr int ReadPct = 70;
constexpr int GuardedPct = 20;
constexpr int MaxBurst = 8;
constexpr int LocalWork = 8;
constexpr size_t EpochSpans = 4096;

// Tape encoding: the top two bits select the operation, the rest index
// the variable (or guarded variable).
constexpr uint32_t OpRead = 0u << 30, OpWrite = 1u << 30,
                   OpGuarded = 2u << 30, OpMask = 3u << 30;

struct Tape {
  std::vector<uint32_t> Ops;
  uint64_t Accesses = 0; ///< shared accesses the tape issues
};

struct Shared {
  std::vector<std::unique_ptr<SharedVar>> Vars, Guarded;
  std::vector<std::unique_ptr<InstrumentedMutex>> Locks;

  Shared() {
    for (int I = 0; I < NumVars; ++I)
      Vars.push_back(std::make_unique<SharedVar>(1000 + I));
    for (int I = 0; I < NumGuarded; ++I)
      Guarded.push_back(std::make_unique<SharedVar>(5000 + I));
    for (int I = 0; I < NumLocks; ++I)
      Locks.push_back(std::make_unique<InstrumentedMutex>(9000 + I));
  }
};

void runTape(Runtime &RT, ThreadId Self, const Tape &T, Shared &S) {
  volatile int64_t Sink = 0;
  for (uint32_t Op : T.Ops) {
    for (int W = 0; W < LocalWork; ++W)
      Sink = Sink + W;
    uint32_t Idx = Op & ~OpMask;
    switch (Op & OpMask) {
    case OpRead:
      Sink = Sink + S.Vars[Idx]->read(RT, Self);
      break;
    case OpWrite:
      S.Vars[Idx]->write(RT, Self, static_cast<int64_t>(Idx));
      break;
    default: {
      InstrumentedGuard G(RT, *S.Locks[Idx % NumLocks], Self);
      int64_t V = S.Guarded[Idx]->read(RT, Self);
      S.Guarded[Idx]->write(RT, Self, V + 1);
      break;
    }
    }
  }
}

/// Runs every tape on its own thread of \p RT; returns the seconds
/// from releasing the workers to all of them joining.
double runThreads(Runtime &RT, const std::vector<Tape> &Tapes, Shared &S) {
  std::atomic<uint32_t> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<Runtime::Handle> Handles;
  for (const Tape &T : Tapes)
    Handles.push_back(RT.spawn(Runtime::MainThread, [&](ThreadId Self) {
      Ready.fetch_add(1);
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      runTape(RT, Self, T, S);
    }));
  while (Ready.load() < Tapes.size())
    std::this_thread::yield();
  Clock::time_point T0 = Clock::now();
  Go.store(true, std::memory_order_release);
  for (Runtime::Handle &H : Handles)
    RT.join(Runtime::MainThread, H);
  return secondsSince(T0);
}

class RecordMt : public Workload {
public:
  explicit RecordMt(const Options &O) : O(O) {
    unsigned HW = std::thread::hardware_concurrency();
    Threads = std::clamp(HW ? HW : 2u, 2u, 8u);
    OpsPerThread = O.Size ? O.Size : O.Tiny ? 20000 : 400000;
    LogPath = O.WorkDir + "/record-mt.light3";
    CompactPath = O.WorkDir + "/record-mt-compact.light3";
  }

  const char *itemName() const override {
    return "shared access recorded under LightRecorder V_both";
  }
  const char *latencyName() const override {
    return "one recording, worker release to finish() closing the log";
  }
  Combine combine() const override { return Combine::Sum; }

  void setup() override {
    Rng R(O.Seed * 0x9e3779b97f4a7c15ull + 17);
    Tapes.assign(Threads, Tape());
    for (Tape &T : Tapes) {
      T.Ops.reserve(OpsPerThread);
      T.Accesses = 2; // ghost start read + termination write
      uint32_t Var = 0, Burst = 0;
      for (uint64_t I = 0; I < OpsPerThread; ++I) {
        if (R.below(100) < GuardedPct) {
          T.Ops.push_back(OpGuarded |
                          static_cast<uint32_t>(R.below(NumGuarded)));
          T.Accesses += 4; // lock rmw, read, write, unlock write
          continue;
        }
        if (Burst == 0) {
          Var = static_cast<uint32_t>(R.below(NumVars));
          Burst = 1 + static_cast<uint32_t>(R.below(MaxBurst));
        }
        --Burst;
        T.Ops.push_back((R.below(100) < ReadPct ? OpRead : OpWrite) | Var);
        T.Accesses += 1;
      }
    }
    Guards = GuardSpec();
    for (int I = 0; I < NumGuarded; ++I)
      Guards.Exact.push_back(loc::var(5000 + I));
    Guards.seal();
  }

  Sample iterate(Checks &C, bool Traced) override {
    if (Traced)
      NullRates.push_back(nullRun());

    std::error_code Ec;
    std::filesystem::remove(LogPath, Ec);
    resetPeakRss();
    LightOptions Opts;
    Opts.WriteToDisk = false;
    Opts.EpochSpans = EpochSpans;
    Opts.DurableLogPath = LogPath;
    Opts.CompressedEpochs = true;
    if (O.NegativeControl)
      fault::Injector::global().configure("log.crash_at_epoch=2");
    Shared S;
    LightRecorder Rec(Opts);
    Rec.setGuards(Guards);
    Runtime RT(Rec);
    double RunS;
    {
      Span Sp("core.recorder.record");
      RunS = runThreads(RT, Tapes, S);
    }
    uint64_t Retries = Rec.readRetries();
    uint64_t Contended = Rec.stripeContentions();
    RecordingLog Log;
    double FinishS;
    {
      Span Sp("core.recorder.finish");
      Log = Rec.finish(&RT.registry());
      FinishS = Sp.stop();
    }
    double RecordS = RunS + FinishS;
    double RssMb = peakRssMb();
    fault::Injector::global().reset();

    uint64_t Accesses = 2 * Tapes.size();
    for (const Tape &T : Tapes)
      Accesses += T.Accesses;

    C.expect(!Rec.overflowed(), "record-mt: recorder overflowed");
    const DurableLogWriter *DL = Rec.durableLog();
    C.expect(DL && DL->ok(), "record-mt: durable log not written");
    RecordingLog Reloaded;
    LogLoadReport Rep;
    bool Loaded;
    double DecodeS;
    {
      Span Sp("trace.RecordingLog.load");
      Loaded = Reloaded.load(LogPath, Rep);
      DecodeS = Sp.stop();
    }
    C.expect(Loaded && Rep.FormatVersion == 3 && Rep.CleanClose,
             "record-mt: durable log did not reload as a cleanly closed "
             "LIGHT003 log");
    bool CountersOk = Reloaded.FinalCounters.size() == Tapes.size() + 1 &&
                      Reloaded.FinalCounters[0] == 2 * Tapes.size();
    for (size_t I = 0; CountersOk && I < Tapes.size(); ++I)
      CountersOk = Reloaded.FinalCounters[I + 1] == Tapes[I].Accesses;
    C.expect(CountersOk, "record-mt: reloaded per-thread counters differ "
                         "from the accesses issued");
    C.expect(Reloaded.Spans.size() == Log.Spans.size(),
             "record-mt: reloaded span count differs from finish()");

    if (Traced) {
      double KAcc = static_cast<double>(Accesses) / 1e3;
      double MAcc = static_cast<double>(Accesses) / 1e6;
      LightRates.push_back(MAcc / RecordS);
      RetriesPerM.push_back(static_cast<double>(Retries) / MAcc);
      ContendedPerM.push_back(static_cast<double>(Contended) / MAcc);
      FinishTimes.push_back(FinishS);
      SpansPerK.push_back(static_cast<double>(Log.Spans.size()) / KAcc);
      BytesPerAccess.push_back(
          static_cast<double>(std::filesystem::file_size(LogPath, Ec)) /
          static_cast<double>(Accesses));
      DecodeTimes.push_back(DecodeS);
      Segments.push_back(static_cast<double>(Rep.SegmentsRecovered));
      uint64_t CompactLongs;
      double EncodeS;
      {
        Span Sp("trace.RecordingLog.saveCompact");
        CompactLongs = Log.saveCompact(CompactPath);
        EncodeS = Sp.stop();
      }
      std::filesystem::remove(CompactPath, Ec);
      double CompactBytes = static_cast<double>(CompactLongs) * 8;
      C.expect(CompactLongs > 0, "record-mt: saveCompact failed");
      EncodeMbPerS.push_back(CompactBytes / 1e6 / EncodeS);
      Compression.push_back(static_cast<double>(Log.spaceLongs()) * 8 /
                            CompactBytes);
    }
    std::filesystem::remove(LogPath, Ec);
    return {{RecordS}, {static_cast<double>(Accesses)}, {RecordS}, RssMb};
  }

  void layerMetrics(std::vector<Metric> &Out) override {
    size_t N = LightRates.size();
    double NullRate = median(NullRates);
    double LightRate = median(LightRates);
    Out.push_back({"runtime.null_maccess_per_s", NullRate, "", N});
    Out.push_back({"core.recorder.overhead_x",
                   LightRate > 0 ? NullRate / LightRate : 0, "", N});
    Out.push_back({"core.recorder.read_retries_per_maccess",
                   median(RetriesPerM), "", N});
    Out.push_back({"core.recorder.stripe_contentions_per_maccess",
                   median(ContendedPerM), "", N});
    Out.push_back({"core.recorder.finish_s", median(FinishTimes), "", N});
    Out.push_back(
        {"core.recorder.spans_per_kaccess", median(SpansPerK), "", N});
    Out.push_back(
        {"trace.log_bytes_per_access", median(BytesPerAccess), "", N});
    Out.push_back({"trace.encode_mb_per_s", median(EncodeMbPerS), "", N});
    Out.push_back({"trace.compression_x", median(Compression), "", N});
    Out.push_back({"trace.decode_s", median(DecodeTimes), "", N});
    Out.push_back({"trace.segments", median(Segments), "", N});
  }

private:
  /// The same tapes under the pass-through hook: the uninstrumented rate
  /// the recorder's overhead is measured against.
  double nullRun() {
    Shared S;
    NullHook Hook;
    Runtime RT(Hook);
    double Secs = runThreads(RT, Tapes, S);
    uint64_t Accesses = 2 * Tapes.size();
    for (const Tape &T : Tapes)
      Accesses += T.Accesses;
    return static_cast<double>(Accesses) / 1e6 / Secs;
  }

  Options O;
  uint32_t Threads = 2;
  uint64_t OpsPerThread = 0;
  std::string LogPath, CompactPath;
  std::vector<Tape> Tapes;
  GuardSpec Guards;

  std::vector<double> NullRates, LightRates, RetriesPerM, ContendedPerM,
      FinishTimes, SpansPerK, BytesPerAccess, EncodeMbPerS, Compression,
      DecodeTimes, Segments;
};

} // namespace

std::unique_ptr<Workload> makeRecordMt(const Options &O) {
  return std::make_unique<RecordMt>(O);
}

} // namespace lb
