//===- lightbench/src/StreamScale.cpp - Streaming pipeline workload -------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// stream-scale: bench_scale's single-OS-thread ping-pong kernel (8
/// logical threads in 4 pairs, each pair alternating bursts on a location
/// of its own) at 4e6 accesses, with per-turn burst lengths drawn from the
/// seed around 512. One unit of work is one forked child running the whole
/// streaming pipeline: record into a durable LIGHT003 epoch log (1024
/// spans per epoch), then stream it back with TraceSegmentReader into the
/// WindowedScheduleBuilder (512-span windows, order spilled to disk) and
/// check the spilled order structurally against the recording. The fork
/// gives every pipeline its own clean peak RSS (wait4).
///
/// Work item: one access recorded, from the first access to finish()
/// closing the durable log (record_maccess_per_s x 1e6), timed in chunks
/// of about 1e5 accesses. Latency: closed log on disk to the verified order
/// (reproduce_s), timed per step: one segment decoded and handed to the
/// windowed builder, the final drain, the order check. Checks: the log
/// closes cleanly and streams back every recorded span, no window is too
/// small, the spilled order has every solved access, and it keeps program
/// order and puts every recorded dependence source before its reader.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/LightRecorder.h"
#include "core/WindowedSchedule.h"
#include "runtime/Runtime.h"
#include "support/Random.h"
#include "trace/SegmentReader.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>

using namespace light;

namespace lb {
namespace {

constexpr uint32_t Threads = 8; // 4 ping-pong pairs
constexpr size_t EpochSpans = 1024;
constexpr size_t WindowSpans = 512;
constexpr uint64_t RecordChunk = 100000;

/// The same structural check bench_scale makes: program order per thread,
/// and every dependence source ordered before its reader.
bool verifyOrder(const std::vector<AccessId> &Order, const RecordingLog &Log,
                 std::string &Why) {
  std::unordered_map<ThreadId, Counter> Last;
  std::unordered_map<uint64_t, uint64_t> Pos;
  Pos.reserve(Order.size());
  for (uint64_t I = 0; I < Order.size(); ++I) {
    const AccessId &A = Order[I];
    auto [It, Fresh] = Last.try_emplace(A.Thread, A.Count);
    if (!Fresh) {
      if (A.Count <= It->second) {
        Why = "order violates program order at " + A.str();
        return false;
      }
      It->second = A.Count;
    }
    Pos[A.pack()] = I;
  }
  for (const DepSpan &S : Log.Spans) {
    if (!S.Src.valid())
      continue;
    auto Src = Pos.find(S.Src.pack()), First = Pos.find(S.first().pack());
    if (Src == Pos.end() || First == Pos.end()) {
      Why = "span " + S.str() + " has an access missing from the order";
      return false;
    }
    if (Src->second >= First->second) {
      Why = "dependence source of " + S.str() + " ordered after its reader";
      return false;
    }
  }
  return true;
}

/// Flips one byte in the middle of \p Path (the negative control).
void corruptMiddle(const std::string &Path) {
  std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
  F.seekg(0, std::ios::end);
  std::streamoff Mid = F.tellg() / 2;
  F.seekg(Mid);
  char B = 0;
  F.read(&B, 1);
  B = static_cast<char>(B ^ 0x5a);
  F.seekp(Mid);
  F.write(&B, 1);
}

class StreamScale : public Workload {
public:
  explicit StreamScale(const Options &O) : O(O) {
    Accesses = O.Size ? O.Size : O.Tiny ? 200000 : 4000000;
    LogPath = O.WorkDir + "/stream.light3";
    SpillPath = O.WorkDir + "/stream.order";
    ResultPath = O.WorkDir + "/stream.result";
  }

  const char *itemName() const override {
    return "shared access recorded by the single-thread ping-pong kernel";
  }
  const char *latencyName() const override {
    return "closed log on disk -> verified order";
  }
  Combine combine() const override { return Combine::Sum; }

  void setup() override {
    // Burst lengths per turn; the kernel cycles through them.
    Rng R(O.Seed * 0xda942042e4dd58b5ull + 5);
    Bursts.assign(4096, 0);
    for (uint32_t &B : Bursts)
      B = 384 + static_cast<uint32_t>(R.below(257));
    // Warm-up: one small pipeline, so the measured children start from a
    // process whose lazy state (allocator, code pages, file cache) is set.
    std::map<std::string, double> Ignored;
    double Rss = 0;
    Checks WarmChecks;
    runForked(Accesses / 20, false, WarmChecks, Ignored, Rss);
  }

  Sample iterate(Checks &C, bool Traced) override {
    std::map<std::string, double> R;
    double RssMb = 0;
    Span Sp("stream-scale.pipeline");
    if (!runForked(Accesses, O.NegativeControl, C, R, RssMb))
      return {};
    Sample S;
    for (const auto &[Key, Value] : R) { // keys sort into item order
      if (Key.rfind("record_", 0) == 0)
        (Key.back() == 's' ? S.WorkSeconds : S.WorkDone).push_back(Value);
      else if (Key.rfind("step_", 0) == 0)
        S.LatencySeconds.push_back(Value);
    }
    S.PeakRssMb = RssMb;
    if (Traced) {
      for (const char *K :
           {"finish_s", "spans_per_kaccess", "log_bytes_per_access",
            "decode_s", "segments", "windowed_solve_s", "windows",
            "window_ms_p50", "late_vs_early_x", "too_small"})
        Layer[K].push_back(R[K]);
    }
    return S;
  }

  void layerMetrics(std::vector<Metric> &Out) override {
    auto Put = [&](const char *Name, const char *Key) {
      const std::vector<double> &V = Layer[Key];
      Out.push_back({Name, median(V), "", V.size()});
    };
    Put("core.recorder.finish_s", "finish_s");
    Put("core.recorder.spans_per_kaccess", "spans_per_kaccess");
    Put("trace.log_bytes_per_access", "log_bytes_per_access");
    Put("trace.decode_s", "decode_s");
    Put("trace.segments", "segments");
    Put("core.windowed.solve_s", "windowed_solve_s");
    Put("core.windowed.windows", "windows");
    Put("core.windowed.window_ms_p50", "window_ms_p50");
    Put("core.windowed.late_vs_early_x", "late_vs_early_x");
    Put("core.windowed.too_small", "too_small");
  }

private:
  /// Runs one pipeline of \p N accesses in a forked child. Fills \p R
  /// with the child's `key value` results and \p RssMb with its peak
  /// RSS; the child's check tallies land in \p C. False when the child
  /// died or left no results (counted as a failed check).
  bool runForked(uint64_t N, bool Corrupt, Checks &C,
                 std::map<std::string, double> &R, double &RssMb) {
    std::error_code Ec;
    std::filesystem::remove(ResultPath, Ec);
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t Pid = ::fork();
    if (Pid < 0)
      return C.expect(false, "stream-scale: fork failed");
    if (Pid == 0)
      ::_exit(pipeline(N, Corrupt));
    int Status = 0;
    struct rusage Ru = {};
    pid_t Got = ::wait4(Pid, &Status, 0, &Ru);
    RssMb = static_cast<double>(Ru.ru_maxrss) / 1024.0;
    std::ifstream In(ResultPath);
    std::string Key;
    double Value;
    while (In >> Key >> Value)
      R[Key] = Value;
    bool Exited = Got == Pid && WIFEXITED(Status) &&
                  WEXITSTATUS(Status) == 0 && R.count("checks");
    if (!C.expect(Exited, "stream-scale: pipeline child failed"))
      return false;
    C.add(static_cast<uint64_t>(R["checks"]),
          static_cast<uint64_t>(R["failed"]));
    return true;
  }

  /// The pipeline itself; runs in the child. Returns the exit code.
  int pipeline(uint64_t N, bool Corrupt) {
    Checks C;
    std::error_code Ec;
    std::filesystem::remove(LogPath, Ec);
    std::filesystem::remove(SpillPath, Ec);
    std::ofstream Out(ResultPath, std::ios::trunc);

    LightOptions Opts;
    Opts.WriteToDisk = false;
    Opts.EpochSpans = EpochSpans;
    Opts.DurableLogPath = LogPath;
    Opts.CompressedEpochs = true;
    LightRecorder Rec(Opts);
    Runtime RT(Rec);
    std::vector<std::unique_ptr<SharedVar>> Vars;
    for (uint32_t I = 0; I < Threads / 2; ++I)
      Vars.push_back(std::make_unique<SharedVar>(I + 1));

    // Record: pair P's two threads alternate bursts on location P; each
    // burst is one head read (picking up the partner's last write)
    // followed by writes.
    // Recording is timed in chunks of about RecordChunk accesses (whole
    // bursts, so every pipeline cuts at the same points), then finish().
    Clock::time_point T0 = Clock::now(), ChunkStart = T0;
    std::vector<std::pair<double, uint64_t>> RecordItems; // seconds, accesses
    uint64_t Done = 0, ChunkFirst = 0;
    size_t Turn = 0;
    while (Done < N)
      for (uint32_t P = 0; P < Threads / 2 && Done < N; ++P)
        for (uint32_t Half = 0; Half < 2 && Done < N; ++Half) {
          ThreadId T = P * 2 + Half;
          uint32_t Burst = Bursts[Turn++ % Bursts.size()];
          for (uint32_t I = 0; I < Burst && Done < N; ++I, ++Done) {
            if (I == 0)
              Vars[P]->read(RT, T);
            else
              Vars[P]->write(RT, T, static_cast<int64_t>(Done));
          }
          if (Done - ChunkFirst >= RecordChunk || Done == N) {
            Clock::time_point Now = Clock::now();
            RecordItems.push_back(
                {std::chrono::duration<double>(Now - ChunkStart).count(),
                 Done - ChunkFirst});
            ChunkStart = Now;
            ChunkFirst = Done;
          }
        }
    Clock::time_point T1 = Clock::now();
    RecordingLog Recorded = Rec.finish(&RT.registry());
    double FinishS = secondsSince(T1);
    RecordItems.push_back({FinishS, 0});
    C.expect(!Rec.overflowed(), "stream-scale: recorder overflowed");
    C.expect(Rec.durableLog() && Rec.durableLog()->ok(),
             "stream-scale: durable log not written");
    uint64_t LogBytes = std::filesystem::file_size(LogPath, Ec);
    if (Corrupt)
      corruptMiddle(LogPath);

    // The closed log is on disk: reproduce_s starts here. Each step (one
    // segment decoded and handed to the builder, the final drain, the
    // order check) is timed on its own.
    Clock::time_point LapStart = Clock::now();
    std::vector<double> Steps;
    auto Lap = [&] {
      Clock::time_point Now = Clock::now();
      Steps.push_back(std::chrono::duration<double>(Now - LapStart).count());
      LapStart = Now;
    };
    TraceSegmentReader Reader(LogPath);
    C.expect(Reader.ok(), "stream-scale: cannot stream the log");
    WindowedOptions WO;
    WO.WindowSpans = WindowSpans;
    WO.SpillPath = SpillPath;
    WindowedScheduleBuilder Builder(WO);
    RecordingLog Streamed;
    double DecodeS = 0, SolveS = 0;
    std::vector<double> WindowMs;
    auto Add = [&] {
      size_t Before = Builder.windowsSolved();
      Clock::time_point W0 = Clock::now();
      bool Ok = Builder.addSpans(Streamed);
      double Dt = secondsSince(W0);
      SolveS += Dt;
      size_t Solved = Builder.windowsSolved() - Before;
      for (size_t I = 0; I < Solved; ++I)
        WindowMs.push_back(Dt * 1e3 / static_cast<double>(Solved));
      return Ok;
    };
    for (;;) {
      Clock::time_point D0 = Clock::now();
      bool More = Reader.ok() && Reader.next(Streamed);
      DecodeS += secondsSince(D0);
      bool Continue = More && Add();
      Lap();
      if (!Continue)
        break;
    }
    Reader.finish(Streamed);
    bool Built = Add();
    Clock::time_point F0 = Clock::now();
    Built = Built && Builder.finish();
    SolveS += secondsSince(F0);
    Lap();
    C.expect(Built, "stream-scale: windowed solve failed: " +
                        Builder.error());
    C.expect(Reader.report().CleanClose &&
                 Streamed.Spans.size() == Recorded.Spans.size(),
             "stream-scale: the log did not stream back every recorded "
             "span");
    std::vector<AccessId> Order = loadSpilledOrder(SpillPath);
    C.expect(Built && Order.size() == Builder.orderSize(),
             "stream-scale: spilled order truncated");
    std::string Why;
    C.expect(verifyOrder(Order, Recorded, Why), "stream-scale: " + Why);
    Lap();

    double Late = 0, Early = 0;
    size_t Q = WindowMs.size() / 4;
    if (Q > 0) {
      Early = mean({WindowMs.begin(), WindowMs.begin() + Q});
      Late = mean({WindowMs.end() - Q, WindowMs.end()});
    }
    double KAcc = static_cast<double>(N) / 1e3;
    Out << "finish_s " << FinishS << "\n"
        << "spans_per_kaccess " << Recorded.Spans.size() / KAcc << "\n"
        << "log_bytes_per_access " << LogBytes / static_cast<double>(N)
        << "\n"
        << "decode_s " << DecodeS << "\n"
        << "segments " << Reader.report().SegmentsRecovered << "\n"
        << "windowed_solve_s " << SolveS << "\n"
        << "windows " << Builder.windowsSolved() << "\n"
        << "window_ms_p50 " << median(WindowMs) << "\n"
        << "late_vs_early_x " << (Early > 0 ? Late / Early : 0) << "\n"
        << "too_small " << (Builder.tooSmall().fired() ? 1 : 0) << "\n"
        << "checks " << C.attempted() << "\n"
        << "failed " << C.failed() << "\n";
    char Key[32];
    for (size_t I = 0; I < RecordItems.size(); ++I) {
      std::snprintf(Key, sizeof(Key), "record_%03zu", I);
      Out << Key << "_s " << RecordItems[I].first << "\n"
          << Key << "_n " << RecordItems[I].second << "\n";
    }
    for (size_t I = 0; I < Steps.size(); ++I) {
      std::snprintf(Key, sizeof(Key), "step_%03zu", I);
      Out << Key << " " << Steps[I] << "\n";
    }
    Out.close();
    std::filesystem::remove(LogPath, Ec);
    std::filesystem::remove(SpillPath, Ec);
    return Out ? 0 : 1;
  }

  Options O;
  uint64_t Accesses = 0;
  std::string LogPath, SpillPath, ResultPath;
  std::vector<uint32_t> Bursts;
  std::map<std::string, std::vector<double>> Layer;
};

} // namespace

std::unique_ptr<Workload> makeStreamScale(const Options &O) {
  return std::make_unique<StreamScale>(O);
}

} // namespace lb
