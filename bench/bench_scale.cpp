//===- bench/bench_scale.cpp - 10^8-access streaming-pipeline bench --------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// End-to-end scale bench for the streaming offline pipeline: per row,
/// record N shared accesses through the Light hook into a compressed
/// LIGHT003 durable epoch log, then stream the log back segment by segment
/// (trace/SegmentReader.h) through the windowed incremental solver
/// (core/WindowedSchedule.h) with the order spilled to disk, and verify the
/// resulting replay order structurally (per-thread program order + every
/// dependence edge).
///
/// Each row runs in a forked child so peak RSS (getrusage ru_maxrss) is
/// that row's own high-water mark, not the max over all rows. The headline
/// claims the table substantiates:
///
///  * peak RSS grows sublinearly in the access count (the span/window/spill
///    machinery bounds memory by spans and window size, not accesses), and
///  * the LIGHT003 log stays >= 3x smaller than the LIGHT001 encoding of
///    the same trace (bytes/access stays in the single digits).
///
/// The kernel is deterministic and single-OS-threaded: logical threads
/// form pairs, each pair ping-ponging bursts on a location of its own (one
/// head read that picks up the partner's final write, then writes). The
/// next burst on the same location closes the previous span immediately,
/// so every thread emits its spans in monotone First order and every
/// dependence source is the newest frozen write — the stream shape the
/// windowed frontier admits at any window size. (A thread cycling over
/// many locations leaves spans open a whole rotation and emits them out of
/// order; that shape needs a window wider than the rotation.)
///
/// Flags: --rows 1e6,1e7,1e8 --threads 8 --burst 512
///        --epoch-spans 4096 --window-spans 512 --dir D --z3 --json [file]
///
//===----------------------------------------------------------------------===//

#include "core/LightRecorder.h"
#include "core/WindowedSchedule.h"
#include "obs/Args.h"
#include "obs/BenchReport.h"
#include "runtime/Runtime.h"
#include "support/Rlimits.h"
#include "support/Table.h"
#include "support/Timer.h"
#include "trace/SegmentReader.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>
#include <vector>

using namespace light;

namespace {

struct RowConfig {
  std::string Label;        ///< the row spec as given, e.g. "1e7"
  uint64_t Accesses = 0;
  uint32_t Threads = 8;     ///< even; pairs share one location each
  uint64_t Locations = 4;   ///< derived: Threads / 2
  uint64_t Burst = 512;
  size_t EpochSpans = 1024;
  size_t WindowSpans = 512;
  bool UseZ3 = false;
};

/// One row's measurements, serialized as `key value` lines by the child
/// and parsed back by the parent.
struct RowResult {
  std::map<std::string, double> Values;
  std::string Error;

  double get(const std::string &Key) const {
    auto It = Values.find(Key);
    return It == Values.end() ? 0 : It->second;
  }
};

uint64_t fileBytes(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? static_cast<uint64_t>(St.st_size)
                                        : 0;
}

/// The bursty kernel: thread pair P ping-pongs on location P. A turn is
/// one head read (picking up the partner's final write) followed by
/// writes; the next turn on the same location closes the previous span
/// right away. Runs on the calling OS thread only — the interleaving is
/// the deterministic round-robin itself.
void runKernel(const RowConfig &C, Runtime &RT,
               std::vector<std::unique_ptr<SharedVar>> &Vars) {
  uint64_t Done = 0;
  const uint32_t Pairs = C.Threads / 2;
  while (Done < C.Accesses) {
    for (uint32_t P = 0; P < Pairs && Done < C.Accesses; ++P) {
      SharedVar &V = *Vars[P];
      for (uint32_t Half = 0; Half < 2 && Done < C.Accesses; ++Half) {
        const uint32_t T = P * 2 + Half;
        for (uint64_t I = 0; I < C.Burst && Done < C.Accesses; ++I, ++Done) {
          if (I == 0)
            V.read(RT, T);
          else
            V.write(RT, T, static_cast<int64_t>(Done));
        }
      }
    }
  }
}

/// Structural replay-order verification at a scale where re-running the
/// monolithic constraint build would defeat the point: the order must keep
/// every thread's accesses in counter order and place every dependence
/// source before its reader.
bool verifyOrder(const std::vector<AccessId> &Order, const RecordingLog &Log,
                 std::string &Why) {
  std::unordered_map<ThreadId, Counter> LastCounter;
  std::unordered_map<uint64_t, uint64_t> Pos;
  Pos.reserve(Order.size());
  for (uint64_t I = 0; I < Order.size(); ++I) {
    const AccessId &A = Order[I];
    auto [It, Fresh] = LastCounter.try_emplace(A.Thread, A.Count);
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
    auto SrcIt = Pos.find(S.Src.pack());
    auto FirstIt = Pos.find(S.first().pack());
    if (SrcIt == Pos.end() || FirstIt == Pos.end()) {
      Why = "span " + S.str() + " has an access missing from the order";
      return false;
    }
    if (SrcIt->second >= FirstIt->second) {
      Why = "dependence source of " + S.str() + " ordered after its reader";
      return false;
    }
  }
  return true;
}

/// The whole pipeline for one row; runs inside the forked child. Writes
/// `key value` lines to \p OutPath and returns the exit code.
int runRow(const RowConfig &C, const std::string &LogPath,
           const std::string &SpillPath, const std::string &OutPath) {
  std::ofstream Out(OutPath, std::ios::trunc);
  auto Fail = [&](const std::string &Why) {
    Out << "error " << 1 << "\n";
    Out.close();
    std::fprintf(stderr, "bench_scale[%s]: %s\n", C.Label.c_str(),
                 Why.c_str());
    return 1;
  };

  Stopwatch Total;

  // Phase 1: record into the compressed durable log.
  Stopwatch Phase;
  LightOptions Opts;
  Opts.EpochSpans = C.EpochSpans;
  Opts.DurableLogPath = LogPath;
  LightRecorder Rec(Opts);
  Runtime RT(Rec);
  std::vector<std::unique_ptr<SharedVar>> Vars;
  Vars.reserve(C.Locations);
  for (uint64_t I = 0; I < C.Locations; ++I)
    Vars.push_back(std::make_unique<SharedVar>(/*Id=*/I + 1));
  runKernel(C, RT, Vars);
  RecordingLog Recorded = Rec.finish(&RT.registry());
  double RecordSeconds = Phase.seconds();
  if (Rec.overflowed())
    return Fail("recording overflowed: " + Rec.overflowError());
  const DurableLogWriter *DL = Rec.durableLog();
  if (!DL || !DL->ok())
    return Fail("durable log not written");
  uint64_t Light001Bytes = Recorded.spaceLongs() * 8;
  uint64_t SpanCount = Recorded.Spans.size();

  // Phase 2: stream the log back and solve in windows, spilling the order.
  Phase.reset();
  TraceSegmentReader Reader(LogPath);
  if (!Reader.ok())
    return Fail("cannot stream log: " + Reader.report().Error);
  WindowedOptions WO;
  WO.Engine = C.UseZ3 ? smt::SolverEngine::Z3 : smt::SolverEngine::Idl;
  WO.WindowSpans = C.WindowSpans;
  WO.SpillPath = SpillPath;
  WindowedScheduleBuilder Builder(WO);
  RecordingLog Streamed;
  while (Reader.next(Streamed) && Builder.addSpans(Streamed))
    ;
  Reader.finish(Streamed);
  Builder.addSpans(Streamed);
  if (!Builder.finish())
    return Fail("windowed solve failed: " + Builder.error());
  double SolveSeconds = Phase.seconds();

  // Phase 3: reload the spilled order and verify it structurally.
  Phase.reset();
  std::vector<AccessId> Order = loadSpilledOrder(SpillPath);
  if (Order.size() != Builder.orderSize())
    return Fail("spilled order truncated");
  std::string Why;
  if (!verifyOrder(Order, Streamed, Why))
    return Fail(Why);
  double VerifySeconds = Phase.seconds();

  Out << "accesses " << C.Accesses << "\n"
      << "spans " << SpanCount << "\n"
      << "windows " << Builder.windowsSolved() << "\n"
      << "order_turns " << Order.size() << "\n"
      << "record_seconds " << RecordSeconds << "\n"
      << "solve_seconds " << SolveSeconds << "\n"
      << "verify_seconds " << VerifySeconds << "\n"
      << "wall_seconds " << Total.seconds() << "\n"
      << "peak_rss_bytes " << peakRssBytes() << "\n"
      << "light001_bytes " << Light001Bytes << "\n"
      << "light003_bytes " << fileBytes(LogPath) << "\n";
  Out.close();
  return Out ? 0 : 1;
}

/// Forks the row into a child (for a clean per-row ru_maxrss) and parses
/// its result file.
RowResult runRowForked(const RowConfig &C, const std::string &Dir) {
  std::string LogPath = Dir + "/scale_" + C.Label + ".light3";
  std::string SpillPath = Dir + "/scale_" + C.Label + ".order";
  std::string OutPath = Dir + "/scale_" + C.Label + ".result";
  RowResult R;

  pid_t Pid = ::fork();
  if (Pid < 0) {
    R.Error = "fork failed";
    return R;
  }
  if (Pid == 0)
    ::_exit(runRow(C, LogPath, SpillPath, OutPath));
  int Status = 0;
  if (::waitpid(Pid, &Status, 0) != Pid) {
    R.Error = "waitpid failed";
    return R;
  }
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    R.Error = "row child failed (status " + std::to_string(Status) + ")";
    return R;
  }

  std::ifstream In(OutPath);
  if (!In) {
    R.Error = "row child left no result file";
    return R;
  }
  std::string Key;
  double Value;
  while (In >> Key >> Value)
    R.Values[Key] = Value;
  if (R.Values.find("accesses") == R.Values.end())
    R.Error = "row result incomplete";
  std::remove(SpillPath.c_str());
  std::remove(OutPath.c_str());
  std::remove(LogPath.c_str());
  return R;
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
                    {"json", "rows", "threads", "burst", "epoch-spans",
                     "window-spans", "dir"},
                    {"z3", "fast"});
  for (const std::string &U : Args.unknown()) {
    std::fprintf(stderr, "bench_scale: unknown flag %s\n", U.c_str());
    return 2;
  }

  RowConfig Base;
  Base.Threads = static_cast<uint32_t>(
      std::stoul(Args.get("threads", "8")));
  Base.Burst = std::stoull(Args.get("burst", "512"));
  Base.EpochSpans = std::stoull(Args.get("epoch-spans", "1024"));
  Base.WindowSpans = std::stoull(Args.get("window-spans", "512"));
  Base.UseZ3 = Args.has("z3");
  Base.Locations = Base.Threads / 2;
  if (Base.Threads < 2 || Base.Threads % 2 != 0 || Base.Burst < 2 ||
      Base.EpochSpans == 0 || Base.WindowSpans == 0) {
    std::fprintf(stderr, "bench_scale: need an even --threads >= 2, "
                         "--burst >= 2 and nonzero --epoch-spans/"
                         "--window-spans\n");
    return 2;
  }
  std::string RowSpec =
      Args.get("rows", Args.has("fast") ? "2e4,2e5" : "1e6,1e7,1e8");
  std::string Dir = Args.get("dir", "", "");
  std::string TempStem;
  if (Dir.empty()) {
    // makeTempPath yields a unique file path; use it as a directory.
    TempStem = makeTempPath("bench_scale");
    Dir = TempStem;
    ::mkdir(Dir.c_str(), 0755);
  }

  std::vector<RowConfig> Rows;
  uint64_t Prev = 0;
  for (const std::string &Spec : splitList(RowSpec)) {
    RowConfig C = Base;
    C.Label = Spec;
    C.Accesses = static_cast<uint64_t>(std::strtod(Spec.c_str(), nullptr));
    if (C.Accesses == 0 || C.Accesses <= Prev) {
      std::fprintf(stderr, "bench_scale: --rows wants strictly increasing "
                           "positive access counts, got '%s'\n",
                   RowSpec.c_str());
      return 2;
    }
    Prev = C.Accesses;
    Rows.push_back(C);
  }

  std::printf("Scale: record -> stream -> windowed solve -> verify, "
              "%u threads (%llu ping-pong pairs), burst %llu, "
              "window %zu spans\n\n",
              Base.Threads,
              static_cast<unsigned long long>(Base.Locations),
              static_cast<unsigned long long>(Base.Burst),
              Base.WindowSpans);

  Table T({"accesses", "spans", "windows", "wall (s)", "solve (s)",
           "peak RSS (MB)", "B/access", "vs LIGHT001"});
  obs::BenchReport Report("scale");
  bool Ok = true;
  double CompressionMin = 1e99;
  double RssGrowthWorst = 0;
  double PrevRss = 0, PrevAccesses = 0;

  for (const RowConfig &C : Rows) {
    RowResult R = runRowForked(C, Dir);
    if (!R.Error.empty()) {
      std::fprintf(stderr, "bench_scale: row %s: %s\n", C.Label.c_str(),
                   R.Error.c_str());
      Ok = false;
      break;
    }
    double Accesses = R.get("accesses");
    double Rss = R.get("peak_rss_bytes");
    double L1 = R.get("light001_bytes");
    double L3 = R.get("light003_bytes");
    double BytesPerAccess = L3 / Accesses;
    double Compression = L3 > 0 ? L1 / L3 : 0;
    CompressionMin = std::min(CompressionMin, Compression);
    if (PrevAccesses > 0) {
      // RSS growth normalized by access growth; < 1 means sublinear.
      double Growth = (Rss / PrevRss) / (Accesses / PrevAccesses);
      RssGrowthWorst = std::max(RssGrowthWorst, Growth);
    }
    PrevRss = Rss;
    PrevAccesses = Accesses;

    T.addRow({C.Label, Table::fmt(R.get("spans"), 0),
              Table::fmt(R.get("windows"), 0),
              Table::fmt(R.get("wall_seconds"), 2),
              Table::fmt(R.get("solve_seconds"), 2),
              Table::fmt(Rss / (1024.0 * 1024.0), 1),
              Table::fmt(BytesPerAccess, 3), Table::fmt(Compression, 1)});
    Report.row()
        .set("config", C.Label)
        .set("threads", static_cast<uint64_t>(C.Threads))
        .set("locations", C.Locations)
        .set("accesses", Accesses)
        .set("spans", R.get("spans"))
        .set("windows", R.get("windows"))
        .set("order_turns", R.get("order_turns"))
        .set("record_seconds", R.get("record_seconds"))
        .set("solve_seconds", R.get("solve_seconds"))
        .set("verify_seconds", R.get("verify_seconds"))
        .set("wall_seconds", R.get("wall_seconds"))
        .set("peak_rss_bytes", Rss)
        .set("light001_bytes", L1)
        .set("light003_bytes", L3)
        .set("bytes_per_access", BytesPerAccess)
        .set("compression_vs_light001", Compression);
    std::fflush(stdout);
  }
  std::printf("%s\n", T.render().c_str());

  bool Sublinear = Rows.size() < 2 || RssGrowthWorst < 1.0;
  bool Compresses = CompressionMin >= 3.0;
  if (Ok) {
    std::printf("peak-RSS growth / access growth (worst consecutive pair): "
                "%.3f -> sublinear %s\n",
                RssGrowthWorst, Sublinear ? "HOLDS" : "VIOLATED");
    std::printf("LIGHT003 vs LIGHT001 compression (worst row): %.2fx -> "
                ">=3x %s\n",
                CompressionMin, Compresses ? "HOLDS" : "VIOLATED");
  }
  Ok = Ok && Sublinear && Compresses;

  if (Args.has("json")) {
    Report.aggregate("rows", static_cast<double>(Rows.size()));
    Report.aggregate("compression_min", CompressionMin);
    Report.aggregate("rss_growth_worst", RssGrowthWorst);
    Report.ok(Ok);
    Report.withMetrics();
    if (!Report.write(Args.get("json")))
      return 1;
  }
  if (!TempStem.empty())
    ::rmdir(Dir.c_str());
  return Ok ? 0 : 1;
}
