//===- core/LightRecorder.h - Algorithm 1 with O1/O2 ------------*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Light recording scheme (Algorithm 1 of the paper) with both
/// optimizations:
///
///  * Every shared access bumps the thread-local counter D(t).
///  * Writes update the location's last-write word lw inside an atomic
///    section guarded by a lock bit folded into lw itself (bit 63; a packed
///    AccessId never uses it), taken with one CAS. This replaces the 2^10
///    striped mutexes of Section 4.1 at zero extra space.
///  * Reads obtain lw via the optimistic retry protocol of Section 2.3 —
///    a seqlock over lw: snapshot lw (waiting out a set lock bit), perform
///    the read, re-check lw, retry on change.
///  * Detected flow dependences are recorded in *thread-local* buffers
///    without synchronization — the paper's key cost insight — and merged
///    only at finish().
///  * The prec map (Algorithm 1 lines 7-9) and optimization O1 (Lemma 4.3)
///    are realized as open spans per (thread, location); see trace/DepSpan.h
///    for the span semantics.
///  * Optimization O2 (Lemma 4.2) skips recording entirely for locations
///    declared consistently guarded by the analysis (counters still bump so
///    replay correlation is preserved).
///  * The long-integer space of Section 5.2 is counted from the buffers
///    (longIntegersRecorded(), RecordingLog::spaceLongs()); what reaches
///    disk is the LIGHT003 log — the durable epoch stream below, or the
///    finished log via RecordingLog::saveCompact().
///  * Durable epochs (LightOptions::EpochSpans/EpochMs) never flush inside
///    a program lock section: the recorder counts each thread's held-lock
///    depth from the ghost lock accesses (Section 4.3) and defers an epoch
///    that falls due inside a section to the thread's first access outside
///    every lock.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_CORE_LIGHTRECORDER_H
#define LIGHT_CORE_LIGHTRECORDER_H

#include "core/LightOptions.h"
#include "runtime/AccessHook.h"
#include "runtime/ThreadRegistry.h"
#include "support/DurableLog.h"
#include "trace/MessageLog.h"
#include "trace/RecordingLog.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

namespace light {

class CompressedSegmentEncoder;

/// The Light recorder. Thread-safe; one instance records one execution.
class LightRecorder : public AccessHook {
public:
  explicit LightRecorder(LightOptions Opts = LightOptions());
  ~LightRecorder() override;

  /// Declares the consistently guarded locations (from the lock-consistency
  /// analysis); only consulted when O2 is enabled. \p Spec must be sealed.
  void setGuards(GuardSpec Spec);

  // AccessHook interface.
  void onWrite(ThreadId T, LocationId L, LocMeta &M,
               FunctionRef<void()> Perform) override;
  void onRead(ThreadId T, LocationId L, LocMeta &M,
              FunctionRef<void()> Perform) override;
  void onRmw(ThreadId T, LocationId L, LocMeta &M,
             FunctionRef<void()> Perform) override;
  uint64_t onSyscall(ThreadId T, FunctionRef<uint64_t()> Compute) override;
  void onMessage(ThreadId T, uint32_t Chan, uint64_t Seq, int64_t Value,
                 bool IsSend) override;
  void onThreadFinish(ThreadId T) override;
  Counter counterOf(ThreadId T) const override;

  /// Opens the durable message side log of a multi-node node at \p Path.
  /// Every onMessage appends one record keyed by the calling thread's
  /// current access counter (the ghost chan RMW it rode on), flushed to the
  /// OS immediately — node death loses at most one record.
  void attachMessageLog(const std::string &Path);

  /// The message side log (nullptr when attachMessageLog was never called).
  const MessageLogWriter *messageLog() const { return MsgLog.get(); }

  /// Supplies the spawn table for durable epoch segments (and as the
  /// default for finish()), so a mid-run crash still leaves the
  /// thread-identity table on disk. Only consulted at epoch boundaries.
  void attachRegistry(const ThreadRegistry *Registry);

  /// Closes all open spans, merges every thread's local buffer, and builds
  /// the RecordingLog. \p Registry (optional) supplies the spawn table;
  /// when omitted, an attachRegistry() registry is used. With epoch
  /// durability on, also writes the final segment and the clean-close
  /// marker to the durable log.
  RecordingLog finish(const ThreadRegistry *Registry = nullptr);

  /// Crash-handler path: closes every open span and writes everything not
  /// yet durable — spans, syscalls, counters, spawn table, guards — as one
  /// final segment, then closes the durable log *without* its clean-close
  /// marker, exactly as a crash-signal handler would leave it. The caller
  /// guarantees all worker threads are quiescent. Returns false when no
  /// durable log is configured or the write failed. The process is expected
  /// to exit afterwards; the recorder is not reusable.
  bool crashFlush();

  /// The durable epoch log (nullptr until the first durable write, or when
  /// epoch durability is off). Valid until the recorder is destroyed.
  const DurableLogWriter *durableLog() const { return Durable.get(); }

  /// Path of the durable epoch log ("" until the first durable write).
  std::string durableLogPath() const {
    return Durable ? Durable->path() : std::string();
  }

  /// Long-integer units written (spans * 4 + syscalls * 2), the unit of the
  /// paper's space measurements.
  uint64_t longIntegersRecorded() const;

  /// Number of optimistic read-protocol retries observed (Section 2.3 notes
  /// the loop yields few retries in practice; tests check that).
  uint64_t readRetries() const;

  /// Write-path lock-bit acquisition failures: each failed CAS on (or wait
  /// behind) another writer's lock bit in a location's last-write word
  /// counts once. (The name predates the lock bit, when writes took
  /// striped mutexes.)
  uint64_t stripeContentions() const;

  /// Epochs that fell due inside a program lock section and were deferred
  /// to the thread's next lock-free point (also published at finish() as
  /// record.epochs_deferred).
  uint64_t epochsDeferred() const;

  /// Locks thread \p T currently holds, counted from its ghost lock
  /// acquire RMWs and release writes. 0 at every lock-free point.
  uint32_t heldLockDepth(ThreadId T) const { return state(T).LockDepth; }

  /// True once any record exceeded a wire width (the trace/Ids.h Max*
  /// limits): the access counter saturated, or an epoch section failed to
  /// encode. The offending data is dropped (the access still performs,
  /// uninstrumented), record.overflow is bumped, and this sticky flag set —
  /// the structured replacement for what used to be release-build packing
  /// UB. A recording with this flag set must not be trusted for replay.
  bool overflowed() const {
    return OverflowSticky.load(std::memory_order_relaxed);
  }

  /// Human-readable description of the first overflow ("" when none).
  std::string overflowError() const;

  /// Test seam: pre-positions thread \p T's access counter so the
  /// counter-saturation guard is reachable without 2^48 real accesses.
  void debugSetCounter(ThreadId T, Counter C) { state(T).Ctr = C; }

  /// Test seam: \p Fn(T) runs right before thread \p T's epoch segment is
  /// written, on the thread writing it (not for the combined final segment
  /// of finish() or crashFlush()).
  void debugOnEpochFlush(std::function<void(ThreadId)> Fn) {
    OnEpochFlush = std::move(Fn);
  }

private:
  struct OpenSpan {
    bool Active = false;
    bool HeadIsRmw = false; ///< RMW-headed spans are always emitted
    SpanKind Kind = SpanKind::Read;
    uint64_t SrcPacked = 0;
    Counter First = 0;
    Counter Last = 0;
  };

  /// One thread's open spans keyed by location: a flat linear-probing
  /// table (power-of-two capacity, InvalidLocation marks an empty slot).
  /// Entries are never erased while the thread runs — a closed span only
  /// goes inactive — so probes never meet tombstones. The last slot found
  /// is remembered: bursts (Figure 2) hit one location many times in a
  /// row, and the check is cheaper than the hash.
  class SpanTable {
  public:
    OpenSpan &operator[](LocationId L) {
      if (Last && Last->Loc == L)
        return Last->Span;
      if (!Slots.empty())
        for (size_t I = slotOf(L);; I = (I + 1) & (Slots.size() - 1)) {
          if (Slots[I].Loc == L) {
            Last = &Slots[I];
            return Last->Span;
          }
          if (Slots[I].Loc == InvalidLocation)
            break;
        }
      return insert(L);
    }

    /// Calls \p Fn(Loc, Span) for every entry, in slot order.
    template <typename Fn> void forEach(Fn F) {
      for (Slot &Sl : Slots)
        if (Sl.Loc != InvalidLocation)
          F(Sl.Loc, Sl.Span);
    }

    void clear() {
      Last = nullptr;
      Slots.clear();
      Used = 0;
    }

  private:
    struct Slot {
      LocationId Loc = InvalidLocation;
      OpenSpan Span;
    };
    std::vector<Slot> Slots;
    Slot *Last = nullptr; ///< last slot found; reset when Slots moves
    size_t Used = 0;
    unsigned Shift = 64;

    size_t slotOf(LocationId L) const {
      return static_cast<size_t>((L * 0x9e3779b97f4a7c15ull) >> Shift);
    }
    OpenSpan &insert(LocationId L);
  };

  struct alignas(64) PerThread {
    Counter Ctr = 0;
    /// Locks held (ghost lock RMWs minus ghost lock release writes).
    uint32_t LockDepth = 0;
    /// An epoch fell due inside a lock section; flush at the next access
    /// with LockDepth == 0.
    bool EpochDeferred = false;
    SpanTable Open;
    /// Every closed span in emission order. The durable-epoch suffix
    /// [DurableSpans, size) is contiguous, so it needs no gathering copy.
    std::vector<DepSpan> Spans;
    std::vector<SyscallRecord> Syscalls;
    uint64_t Retries = 0;
    // Epoch durability bookkeeping: how much of this thread's output is
    // already in the durable log.
    size_t DurableSpans = 0;
    size_t DurableSyscalls = 0;
    std::chrono::steady_clock::time_point LastEpoch =
        std::chrono::steady_clock::now();
    // Telemetry tallies. Plain fields on the already thread-local struct —
    // the recording hot path never touches shared metric storage; the
    // registry sees these only when finish() publishes them.
    uint64_t SpanMerges = 0;      ///< O1/prec extensions of an open span
    uint64_t GuardedElided = 0;   ///< accesses skipped via O2 (Lemma 4.2)
    uint64_t StripeContended = 0; ///< write-path lock-bit CAS failures
    uint64_t EpochsDeferred = 0;  ///< epochs deferred out of lock sections
  };

  LightOptions Opts;
  std::vector<std::unique_ptr<PerThread>> Threads;
  GuardSpec Guards;

  /// True when EpochSpans/EpochMs enable the durable epoch log. Cached so
  /// span-close paths pay one bool test when the feature is off.
  bool EpochsOn = false;
  std::mutex EpochMutex; ///< serializes segment writes across threads
  std::unique_ptr<DurableLogWriter> Durable; ///< guarded by EpochMutex
  bool GuardsEmitted = false;                ///< guarded by EpochMutex
  const ThreadRegistry *SpawnSource = nullptr;

  std::atomic<bool> OverflowSticky{false};
  mutable std::mutex OverflowMutex; ///< guards OverflowWhat
  std::string OverflowWhat;

  std::function<void(ThreadId)> OnEpochFlush; ///< debugOnEpochFlush seam

  std::mutex MsgMutex; ///< serializes message-log appends across threads
  std::unique_ptr<MessageLogWriter> MsgLog; ///< guarded by MsgMutex

  PerThread &state(ThreadId T) { return *Threads[T]; }
  const PerThread &state(ThreadId T) const { return *Threads[T]; }

  bool isGuarded(LocationId L) const {
    return Opts.EnableO2 && !Guards.empty() && Guards.covers(L);
  }

  /// Runs a deferred epoch flush once the thread is outside every lock.
  /// Called at the entry of each access, before its Perform.
  void flushDeferredEpoch(PerThread &S, ThreadId T) {
    if (S.EpochDeferred && S.LockDepth == 0)
      flushEpoch(S, T);
  }

  void recordWrite(PerThread &S, ThreadId T, LocationId L, LocMeta &M,
                   FunctionRef<void()> Perform);
  void recordRmw(PerThread &S, ThreadId T, LocationId L, LocMeta &M,
                 FunctionRef<void()> Perform);
  void closeAllSpans(PerThread &S, ThreadId T);
  void closeSpan(PerThread &S, ThreadId T, LocationId L, OpenSpan &Sp);
  void maybeEpochFlush(PerThread &S, ThreadId T);
  bool epochDue(const PerThread &S, size_t Pending, unsigned Scale) const;
  void flushEpoch(PerThread &S, ThreadId T);
  void appendPendingSections(CompressedSegmentEncoder &Enc, PerThread &S,
                             ThreadId T);
  bool writeDurableSegment(const CompressedSegmentEncoder &Enc);
  void noteOverflow(const std::string &What, bool BumpMetric = false);
  void counterSaturated(ThreadId T);
  void noteRead(PerThread &S, ThreadId T, LocationId L, uint64_t Src,
                Counter C, uint32_t PrevAccessor);
  void noteWrite(PerThread &S, ThreadId T, LocationId L, Counter C,
                 uint32_t PrevAccessor);
  void noteRmw(PerThread &S, ThreadId T, LocationId L, uint64_t Src,
               Counter C, uint32_t PrevAccessor);
};

} // namespace light

#endif // LIGHT_CORE_LIGHTRECORDER_H
