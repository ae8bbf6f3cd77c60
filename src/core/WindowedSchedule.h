//===- core/WindowedSchedule.h - Incremental windowed solving ---*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Windowed constraint generation and incremental solving for traces too
/// large to solve monolithically (the 10^8-access scale runs of
/// bench_scale). The builder consumes spans in stream order — typically as
/// trace/SegmentReader.h yields epoch segments — and solves one *window*
/// of spans at a time:
///
///  * Each window becomes its own OrderSystem, built by the same generator
///    as the monolithic system (generateScheduleProblem, with the sources
///    the frontier froze marked), and is solved independently.
///  * Solved windows are *frozen*: their order values are final. Window
///    k+1's values are offset-stacked strictly above window k's, so every
///    cross-window constraint of the form O(frozen) < O(new) holds by
///    construction.
///  * Cross-window constraints that would need O(new) < O(frozen) cannot
///    be honored anymore; the builder detects every such case from a small
///    per-location frontier plus a per-thread horizon, and fails with the
///    structured WindowTooSmall error instead of producing a wrong
///    schedule. The caller's remedy is a larger window.
///  * Completed order fragments can be spilled to disk (LongWriter of
///    packed AccessIds), so peak memory holds one window's constraint
///    system plus the O(locations + threads) frontier, not the whole
///    order.
///
/// Soundness of the frontier checks (the monolithic system's cross-window
/// constraints, given frozen < new):
///
///  * Intra-thread chains and straggler spans: every new variable (T, c)
///    must have c > FrozenHorizon[T], the largest frozen counter of T —
///    otherwise the chain O(c) < O(c') for a frozen c' > c is violated.
///  * R2/R6 stale readers: a new span reading source w while the frontier
///    already froze a *newer* write on the location would have to run
///    before that write. A new span's frozen source must therefore be the
///    frontier's newest write exactly.
///  * R4 late initializers: a new Init span on a location with any frozen
///    write (or write-implying dependence) would have to precede it.
///
/// Inductively, the frontier's newest write has the maximum order value of
/// any write event on its location, and every frozen span not containing
/// it ends before it — so a new span anchored on the newest write
/// satisfies R1/R2/R3/R6 against all frozen spans. The
/// WindowedScheduleTest property suite validates windowed orders against
/// the monolithic OrderSystem via satisfiedBy().
///
/// Stream reordering: the recorder flushes each thread's spans at that
/// thread's own epoch boundaries, so the stream interleaves per-thread
/// batches with arbitrary skew — a span can reference a source write whose
/// covering span is still buffered in its owner thread. Solving the
/// reference first would freeze a variable *inside* the not-yet-seen span
/// and turn that span into a straggler. The builder therefore drains
/// arrived spans *topologically*: per-thread FIFO queues, and a span
/// leaves its queue only once the source thread has drained past the
/// source counter (reads-from edges always point back in time, so the
/// drain order exists). Spans a thread emits out of First order — possible
/// when a span stays open across many epochs — still fail with
/// StragglerSpan; the remedy is a larger window.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_CORE_WINDOWEDSCHEDULE_H
#define LIGHT_CORE_WINDOWEDSCHEDULE_H

#include "core/ReplaySchedule.h"
#include "support/BinaryIO.h"

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace light {

/// Configuration of one windowed build.
struct WindowedOptions {
  smt::SolverEngine Engine = smt::SolverEngine::Idl;
  smt::SolverLimits Limits = {};

  /// Spans per window: solving starts once this many spans are pending and
  /// each window takes exactly this many (the final window takes the
  /// remainder), so one window bounds the live constraint-system size no
  /// matter how large the arriving batches are. 0 behaves as 1.
  size_t WindowSpans = 1 << 15;

  /// When non-empty, stream solved order fragments (packed AccessIds) to
  /// this file instead of accumulating them in memory.
  std::string SpillPath;
};

/// Why a windowed build refused to continue. The window was provably too
/// small: a constraint against an already-frozen window cannot be honored.
struct WindowTooSmall {
  enum class Kind {
    None,
    StragglerSpan, ///< new span/source at or below a thread's frozen horizon
    StaleSource,   ///< new span reads a frozen write that is not the newest
    InitAfterWrite ///< new Init span on a location with a frozen write
  };
  Kind What = Kind::None;
  std::string Detail;

  bool fired() const { return What != Kind::None; }
};

/// Builds a replay schedule window by window. Typical use:
///
///   WindowedScheduleBuilder B(Opts);
///   TraceSegmentReader Reader(Path);
///   RecordingLog Log;
///   while (Reader.next(Log) && B.addSpans(Log))
///     ;
///   Reader.finish(Log);
///   if (B.addSpans(Log) && B.finish())
///     ReplaySchedule RS = B.takeSchedule(Log);
class WindowedScheduleBuilder {
public:
  explicit WindowedScheduleBuilder(WindowedOptions Opts = {});
  ~WindowedScheduleBuilder();

  /// Consumes every span of \p Log past the last consumed index and solves
  /// full windows. Returns false once the build has failed.
  bool addSpans(const RecordingLog &Log);

  /// Solves the final partial window. Call once, after the last addSpans.
  bool finish();

  bool ok() const { return Error.empty(); }
  const std::string &error() const { return Error; }

  /// The structured too-small condition (fired() == false when the failure
  /// was a solver failure instead, or when ok()).
  const WindowTooSmall &tooSmall() const { return TooSmall; }

  size_t windowsSolved() const { return Windows; }

  /// Aggregated solver statistics across all windows.
  const smt::SolveResult &stats() const { return Aggregate; }

  /// What constraint generation settled before search, summed over the
  /// windows.
  const PairStats &pairStats() const { return Pairs; }

  /// Total accesses in the solved order so far.
  uint64_t orderSize() const { return OrderCount; }

  /// The concatenated solved order; reads the spill file back when
  /// spilling. Only valid after finish().
  std::vector<AccessId> solvedOrder() const;

  /// Assembles the executable schedule via ReplaySchedule::fromSolvedOrder.
  /// Only valid after finish() on an ok() build.
  ReplaySchedule takeSchedule(const RecordingLog &Log) const;

private:
  struct LocFrontier {
    bool HasWriteOrDep = false;     ///< any frozen write or dependence
    uint64_t NewestWritePacked = 0; ///< newest frozen write (0 = none)
    int64_t NewestWriteValue = 0;   ///< its global order value
  };

  WindowedOptions Opts;
  std::string Error;
  WindowTooSmall TooSmall;
  size_t Windows = 0;
  smt::SolveResult Aggregate;
  PairStats Pairs;

  size_t SeenSpans = 0;          ///< spans consumed from the log so far
  std::vector<DepSpan> Pending;  ///< drained spans awaiting their window
  /// Arrived spans not yet drained: per-thread FIFOs plus the per-thread
  /// high-water Last counter already drained (the topological-drain
  /// watermark; see the file comment).
  std::unordered_map<ThreadId, std::deque<DepSpan>> Arrived;
  std::unordered_map<ThreadId, Counter> DrainedLast;
  size_t ArrivedCount = 0;       ///< spans waiting across all queues
  int64_t NextBase = 0;          ///< first order value of the next window
  std::vector<Counter> FrozenHorizon;              ///< per thread
  std::unordered_map<LocationId, LocFrontier> Frontier;

  /// Moves topologically-ready spans from Arrived to Pending; \p Force
  /// drains everything in arrival order (finish(), when the stream is
  /// complete and unresolvable sources mean a truncated/partial log).
  void drainReady(bool Force);

  uint64_t OrderCount = 0;
  std::vector<AccessId> OrderMem;          ///< when not spilling
  std::unique_ptr<LongWriter> Spill;       ///< when spilling
  bool Finished = false;

  /// Solves the first \p Count pending spans as one window.
  bool solveWindow(size_t Count);
  void fail(std::string Why);
  void failTooSmall(WindowTooSmall::Kind What, std::string Detail);
};

/// Reads a spilled order fragment file back (packed AccessIds in order).
std::vector<AccessId> loadSpilledOrder(const std::string &Path);

} // namespace light

#endif // LIGHT_CORE_WINDOWEDSCHEDULE_H
