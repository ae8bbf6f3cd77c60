//===- core/LightRecorder.cpp - Algorithm 1 with O1/O2 --------------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "core/LightRecorder.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/BinaryIO.h"
#include "trace/SegmentCodec.h"

#include <cassert>
#include <mutex>
#include <thread>
#include <utility>

using namespace light;

namespace {

/// The write lock bit of LocMeta::LastWrite. A packed AccessId holds its
/// thread id (< MaxThreads = 2^10) in bits 48..57, so bit 63 is free.
constexpr uint64_t LockBit = 1ull << 63;
static_assert(MaxThreads <= (1u << 15), "thread ids would reach the lock bit");

/// Spin-then-yield backoff for the lock-bit protocol. A writer holds the bit
/// for a handful of instructions, so a short pause loop covers the common
/// case; past that the holder has likely been preempted, and spinning on
/// would only keep it off the core.
inline void backoff(unsigned &Spins) {
  if (++Spins < 64) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  } else {
    std::this_thread::yield();
  }
}

/// Makes \p T the location's last accessor and returns the previous one.
/// The seq_cst load (a plain load on x86) skips the locked exchange when
/// the mark is already T's, as it is on every access but the first of a
/// burst.
inline uint32_t takeAccessor(LocMeta &M, ThreadId T) {
  uint32_t Prev = M.LastAccessor.load(std::memory_order_seq_cst);
  return Prev == T + 1u ? Prev : M.LastAccessor.exchange(T + 1u);
}

/// How far past its threshold an epoch may be deferred inside a lock
/// section before it flushes anyway, so a thread that never leaves its
/// locks still bounds what a crash can lose.
constexpr unsigned DeferredEpochCap = 4;

} // namespace

LightRecorder::LightRecorder(LightOptions O) : Opts(std::move(O)) {
  Threads.reserve(MaxThreads);
  for (uint32_t I = 0; I < MaxThreads; ++I)
    Threads.push_back(std::make_unique<PerThread>());
  EpochsOn = Opts.EpochSpans != 0 || Opts.EpochMs != 0;
}

LightRecorder::~LightRecorder() = default;

void LightRecorder::setGuards(GuardSpec Spec) { Guards = std::move(Spec); }

void LightRecorder::attachRegistry(const ThreadRegistry *Registry) {
  SpawnSource = Registry;
}

Counter LightRecorder::counterOf(ThreadId T) const { return state(T).Ctr; }

LightRecorder::OpenSpan &LightRecorder::SpanTable::insert(LocationId L) {
  assert(L != InvalidLocation && "InvalidLocation marks empty slots");
  // Grow at half load: probe runs stay short, and a miss (first touch of a
  // location) is the only path that pays for it.
  if (2 * (Used + 1) > Slots.size()) {
    std::vector<Slot> Old = std::exchange(
        Slots, std::vector<Slot>(Slots.empty() ? 16 : 2 * Slots.size()));
    Shift = 64 - static_cast<unsigned>(__builtin_ctzll(Slots.size()));
    for (Slot &Sl : Old)
      if (Sl.Loc != InvalidLocation) {
        size_t I = slotOf(Sl.Loc);
        while (Slots[I].Loc != InvalidLocation)
          I = (I + 1) & (Slots.size() - 1);
        Slots[I] = Sl;
      }
  }
  size_t I = slotOf(L);
  while (Slots[I].Loc != InvalidLocation)
    I = (I + 1) & (Slots.size() - 1);
  Slots[I].Loc = L;
  ++Used;
  Last = &Slots[I];
  return Last->Span;
}

void LightRecorder::closeAllSpans(PerThread &S, ThreadId T) {
  S.Open.forEach(
      [&](LocationId L, OpenSpan &Sp) { closeSpan(S, T, L, Sp); });
  S.Open.clear();
}

void LightRecorder::closeSpan(PerThread &S, ThreadId T, LocationId L,
                              OpenSpan &Sp) {
  if (!Sp.Active)
    return;
  // A single plain write with no incoming dependence carries no ordering
  // obligation of its own: if some thread read it, that reader's recorded
  // dependence names it (making it a gated source); otherwise it is blind.
  // Dropping it keeps O1 from ever logging more than Algorithm 1 does.
  if (Sp.Kind == SpanKind::Own && !Sp.HeadIsRmw && Sp.SrcPacked == 0 &&
      Sp.First == Sp.Last) {
    Sp.Active = false;
    return;
  }
  DepSpan D;
  D.Loc = L;
  D.Kind = Sp.Kind;
  if (Sp.SrcPacked)
    D.Src = AccessId::unpack(Sp.SrcPacked);
  D.Thread = T;
  D.First = Sp.First;
  D.Last = Sp.Last;
  S.Spans.push_back(D);
  Sp.Active = false;
  obs::Tracer &Tr = obs::Tracer::global();
  if (Tr.enabled())
    Tr.instant("record.span", "record", T, {"loc", L},
               {"len", Sp.Last - Sp.First + 1});
  if (EpochsOn)
    maybeEpochFlush(S, T);
}

// --- Epoch durability -------------------------------------------------------
//
// Everything below is reached only from span-close and syscall paths when
// EpochSpans/EpochMs enable it, plus one flag test per access for a
// deferred epoch — so the recording overhead the paper measures is
// untouched by default.
//
// An epoch closes at the first lock-free point after its threshold: when it
// falls due while the thread holds a program lock (LockDepth > 0), the
// flush — encode, checksum, write — waits for the thread's next access
// outside every lock (or its onThreadFinish), so the other threads never
// stall on a lock whose holder is busy writing the log. A deferral that
// reaches DeferredEpochCap times the threshold flushes in place.

bool LightRecorder::epochDue(const PerThread &S, size_t Pending,
                             unsigned Scale) const {
  if (Opts.EpochSpans && Pending >= Scale * Opts.EpochSpans)
    return true;
  return Opts.EpochMs && std::chrono::steady_clock::now() - S.LastEpoch >=
                             std::chrono::milliseconds(Scale * Opts.EpochMs);
}

void LightRecorder::maybeEpochFlush(PerThread &S, ThreadId T) {
  size_t Pending = S.Spans.size() - S.DurableSpans +
                   (S.Syscalls.size() - S.DurableSyscalls);
  if (!Pending || !epochDue(S, Pending, 1))
    return;
  if (S.LockDepth && !epochDue(S, Pending, DeferredEpochCap)) {
    if (!S.EpochDeferred) {
      S.EpochDeferred = true;
      ++S.EpochsDeferred;
    }
    return;
  }
  flushEpoch(S, T);
}

void LightRecorder::appendPendingSections(CompressedSegmentEncoder &Enc,
                                          PerThread &S, ThreadId T) {
  // A section that exceeds a wire width is left out and latches the
  // encoder's overflow flag, so the segment that reaches disk holds exactly
  // the sections that fit.
  if (S.DurableSpans < S.Spans.size()) {
    Enc.addSpans(S.Spans.data() + S.DurableSpans,
                 S.Spans.size() - S.DurableSpans);
    S.DurableSpans = S.Spans.size();
  }
  if (S.DurableSyscalls < S.Syscalls.size()) {
    Enc.addSyscalls(S.Syscalls.data() + S.DurableSyscalls,
                    S.Syscalls.size() - S.DurableSyscalls);
    S.DurableSyscalls = S.Syscalls.size();
  }
  Enc.addCounters({{T, S.Ctr}});
  S.LastEpoch = std::chrono::steady_clock::now();
  S.EpochDeferred = false;
}

void LightRecorder::flushEpoch(PerThread &S, ThreadId T) {
  if (OnEpochFlush)
    OnEpochFlush(T);
  CompressedSegmentEncoder Enc;
  appendPendingSections(Enc, S, T);
  // The spawn table rides along on every epoch (replace semantics) so a
  // salvaged prefix can still map replay threads to recorded ones.
  if (SpawnSource)
    Enc.addSpawns(SpawnSource->spawnTable());
  writeDurableSegment(Enc);
}

bool LightRecorder::writeDurableSegment(const CompressedSegmentEncoder &Enc) {
  if (Enc.overflowed())
    noteOverflow("an epoch section exceeded a wire width and was dropped "
                 "from the durable log");
  std::lock_guard<std::mutex> Guard(EpochMutex);
  if (!Durable) {
    std::string Path = Opts.DurableLogPath.empty() ? makeTempPath("durable")
                                                   : Opts.DurableLogPath;
    Durable = std::make_unique<DurableLogWriter>(std::move(Path));
  }
  if (!Durable->ok())
    return false;
  // One durable segment == one recording epoch reaching disk; the progress
  // heartbeat watches this to show long runs advancing through epochs.
  obs::Registry::global().counter("record.epochs").add(1);
  if (!GuardsEmitted) {
    GuardsEmitted = true;
    if (Opts.EnableO2 && !Guards.empty()) {
      CompressedSegmentEncoder GuardEnc;
      GuardEnc.addGuards(Guards);
      if (!Durable->writeSegment(GuardEnc.finish()))
        return false;
    }
  }
  return Durable->writeSegment(Enc.finish());
}

void LightRecorder::noteOverflow(const std::string &What, bool BumpMetric) {
  if (OverflowSticky.exchange(true, std::memory_order_relaxed))
    return;
  // The section encoders bump record.overflow themselves; only the counter
  // saturation path needs the bump here.
  if (BumpMetric)
    obs::Registry::global().counter("record.overflow").add(1);
  std::lock_guard<std::mutex> Guard(OverflowMutex);
  OverflowWhat = What;
}

void LightRecorder::counterSaturated(ThreadId T) {
  // Past MaxAccessCounter the packed AccessId would alias an earlier access
  // of the same thread (pack() masks). Perform the access uninstrumented
  // and fail the recording with a structured error — the old behavior was
  // an assert in debug builds and silent aliasing in release ones.
  noteOverflow("thread " + std::to_string(T) +
                   " access counter exceeded MaxAccessCounter; the "
                   "recording is incomplete from that access on",
               /*BumpMetric=*/true);
}

std::string LightRecorder::overflowError() const {
  if (!overflowed())
    return std::string();
  std::lock_guard<std::mutex> Guard(OverflowMutex);
  return OverflowWhat;
}

bool LightRecorder::crashFlush() {
  if (!EpochsOn)
    return false;
  CompressedSegmentEncoder Enc;
  for (uint32_t T = 0; T < MaxThreads; ++T) {
    PerThread &S = *Threads[T];
    closeAllSpans(S, static_cast<ThreadId>(T));
    if (S.Ctr || S.DurableSyscalls < S.Syscalls.size())
      appendPendingSections(Enc, S, static_cast<ThreadId>(T));
  }
  if (SpawnSource)
    Enc.addSpawns(SpawnSource->spawnTable());
  // An empty trailing zero-payload segment would masquerade as the
  // clean-close marker; with nothing to save, leave only what is already
  // durable on disk.
  bool Ok = Enc.empty() ? true : writeDurableSegment(Enc);
  std::lock_guard<std::mutex> Guard(EpochMutex);
  if (!Durable)
    return false;
  Durable->abandon(); // deliberately no clean-close marker
  // The message side log needs no crash handling: every append already
  // reached the OS, and its missing close marker is exactly the torn-tail
  // shape loadMessageLog salvages.
  return Ok;
}

// --- The recording protocol ------------------------------------------------
//
// The last-write word lw doubles as a per-location seqlock. A writer sets
// LockBit with one CAS, performs the program store, takes the
// last-accessor mark, and publishes its packed AccessId with a release
// store that also clears the bit. A reader waits out a set bit, performs
// the program load, and re-checks lw (Section 2.3's optimistic protocol).
//
// Ordering. The writer's CAS and mark load and the reader's mark store and
// re-check load are seq_cst (on x86 the same instructions as acquire and
// plain loads): a reader that marks LastAccessor and then re-validates lw
// unchanged is ordered before the next writer's CAS, so that writer sees
// the mark and closes its O1 span. The writer takes the mark *before*
// publishing, so a reader that observed the new id marks after it and the
// writer's following write sees that mark.

void LightRecorder::onWrite(ThreadId T, LocationId L, LocMeta &M,
                            FunctionRef<void()> Perform) {
  PerThread &S = state(T);
  flushDeferredEpoch(S, T);
  recordWrite(S, T, L, M, Perform);
  // A ghost lock-word write is a release (Section 4.3). The depth drops
  // only now, so spans the release itself closed still see the lock held.
  if (loc::kindOf(L) == LocationKind::Lock && S.LockDepth)
    --S.LockDepth;
}

void LightRecorder::recordWrite(PerThread &S, ThreadId T, LocationId L,
                                LocMeta &M, FunctionRef<void()> Perform) {
  Counter C = ++S.Ctr;
  if (C > MaxAccessCounter) {
    counterSaturated(T);
    Perform();
    return;
  }
  if (isGuarded(L)) {
    // O2: the lock operation order subsumes this location's dependences
    // (Lemma 4.2); perform the access uninstrumented.
    ++S.GuardedElided;
    Perform();
    return;
  }
  // "The simple update (lw_l = n) is placed in the same atomic section
  // with the shared access from [the] program" — Section 2.3. The lock bit
  // is that section.
  uint64_t Cur = M.LastWrite.load(std::memory_order_relaxed);
  unsigned Spins = 0;
  while ((Cur & LockBit) ||
         !M.LastWrite.compare_exchange_weak(Cur, Cur | LockBit,
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
    ++S.StripeContended;
    backoff(Spins);
    Cur = M.LastWrite.load(std::memory_order_relaxed);
  }
  // Keeps the program store after the bit for a reader's fence-validated
  // re-check (the seqlock writer's fence).
  std::atomic_thread_fence(std::memory_order_release);
  Perform();
  uint32_t PrevAccessor = takeAccessor(M, T);
  M.LastWrite.store(AccessId(T, C).pack(), std::memory_order_release);
  noteWrite(S, T, L, C, PrevAccessor);
}

void LightRecorder::onRead(ThreadId T, LocationId L, LocMeta &M,
                           FunctionRef<void()> Perform) {
  PerThread &S = state(T);
  flushDeferredEpoch(S, T);
  Counter C = ++S.Ctr;
  if (C > MaxAccessCounter) {
    counterSaturated(T);
    Perform();
    return;
  }
  if (isGuarded(L)) {
    ++S.GuardedElided;
    Perform();
    return;
  }
  // Optimistic write/read matching (Section 2.3): snapshot lw, perform the
  // read, re-check lw; retry when a write slipped in between. Only a
  // *foreign* reader leaves the last-accessor mark (it is the one event
  // that must close the writer's O1 span), and only when the mark is not
  // already its own, so a burst of reads stays free of shared stores.
  uint64_t N1, N2;
  unsigned Spins = 0;
  while (true) {
    N1 = M.LastWrite.load(std::memory_order_acquire);
    if (N1 & LockBit) {
      backoff(Spins);
      continue;
    }
    if (N1 != 0 && AccessId::unpack(N1).Thread != T &&
        M.LastAccessor.load(std::memory_order_relaxed) != T + 1u)
      M.LastAccessor.store(T + 1u);
    Perform();
    std::atomic_thread_fence(std::memory_order_acquire);
    N2 = M.LastWrite.load(std::memory_order_seq_cst);
    if (N1 == N2)
      break;
    ++S.Retries;
    obs::Tracer &Tr = obs::Tracer::global();
    if (Tr.enabled())
      Tr.instant("record.read_retry", "record", T, {"loc", L});
  }
  noteRead(S, T, L, N1, C, M.LastAccessor.load(std::memory_order_relaxed));
}

void LightRecorder::onRmw(ThreadId T, LocationId L, LocMeta &M,
                          FunctionRef<void()> Perform) {
  PerThread &S = state(T);
  flushDeferredEpoch(S, T);
  // A ghost lock-word RMW is an acquisition (Section 4.3); the depth rises
  // before Perform, so nothing this access closes flushes inside the lock.
  if (loc::kindOf(L) == LocationKind::Lock)
    ++S.LockDepth;
  recordRmw(S, T, L, M, Perform);
}

void LightRecorder::recordRmw(PerThread &S, ThreadId T, LocationId L,
                              LocMeta &M, FunctionRef<void()> Perform) {
  Counter C = ++S.Ctr;
  if (C > MaxAccessCounter) {
    counterSaturated(T);
    Perform();
    return;
  }
  if (isGuarded(L)) {
    ++S.GuardedElided;
    Perform();
    return;
  }
  // Lock acquisition et al.: the ghost read+write run inside the lock
  // region, which already provides the atomicity Algorithm 1 needs
  // (Section 4.3) — no lock bit required.
  Perform();
  uint64_t Src = M.LastWrite.load(std::memory_order_acquire);
  assert(!(Src & LockBit) && "RMW raced a write on the same location");
  uint32_t PrevAccessor = takeAccessor(M, T);
  M.LastWrite.store(AccessId(T, C).pack(), std::memory_order_release);
  noteRmw(S, T, L, Src, C, PrevAccessor);
}

// --- Thread-local span maintenance (no synchronization) ---------------------

void LightRecorder::noteRead(PerThread &S, ThreadId T, LocationId L,
                             uint64_t Src, Counter C, uint32_t PrevAccessor) {
  OpenSpan &Sp = S.Open[L];
  if (Sp.Active) {
    // prec hit (Algorithm 1 lines 7-9): same source as the previous read.
    if ((Sp.Kind == SpanKind::Read || Sp.Kind == SpanKind::Init) &&
        Sp.SrcPacked == Src) {
      Sp.Last = C;
      ++S.SpanMerges;
      return;
    }
    // O1 extension: reading my own write from the current uninterleaved
    // span, with no other thread having touched the location meanwhile.
    if (Opts.EnableO1 && Sp.Kind == SpanKind::Own && Src != 0) {
      AccessId SrcId = AccessId::unpack(Src);
      if (SrcId.Thread == T && SrcId.Count >= Sp.First &&
          SrcId.Count <= Sp.Last &&
          (PrevAccessor == 0 || PrevAccessor == T + 1u)) {
        Sp.Last = C;
        ++S.SpanMerges;
        return;
      }
    }
    closeSpan(S, T, L, Sp);
  }
  Sp.Active = true;
  Sp.HeadIsRmw = false;
  Sp.SrcPacked = Src;
  Sp.Kind = Src ? SpanKind::Read : SpanKind::Init;
  Sp.First = Sp.Last = C;
}

void LightRecorder::noteWrite(PerThread &S, ThreadId T, LocationId L,
                              Counter C, uint32_t PrevAccessor) {
  OpenSpan &Sp = S.Open[L];
  if (Sp.Active) {
    if (Opts.EnableO1 && Sp.Kind == SpanKind::Own &&
        (PrevAccessor == 0 || PrevAccessor == T + 1u)) {
      Sp.Last = C;
      ++S.SpanMerges;
      return;
    }
    closeSpan(S, T, L, Sp);
  }
  if (!Opts.EnableO1)
    return; // Plain writes are only recorded as dependence sources.
  Sp.Active = true;
  Sp.HeadIsRmw = false;
  Sp.Kind = SpanKind::Own;
  Sp.SrcPacked = 0;
  Sp.First = Sp.Last = C;
}

void LightRecorder::noteRmw(PerThread &S, ThreadId T, LocationId L,
                            uint64_t Src, Counter C, uint32_t PrevAccessor) {
  OpenSpan &Sp = S.Open[L];
  // Channel ghost RMWs are the anchor points of cross-node send->recv edges
  // (dist/NodeSet): each must surface as its own span endpoint — i.e. an
  // order variable in the merged constraint system — so O1 never compresses
  // a run of message operations into one span.
  bool Anchor = loc::kindOf(L) == LocationKind::Chan;
  if (Sp.Active) {
    if (!Anchor && Opts.EnableO1 && Sp.Kind == SpanKind::Own &&
        (PrevAccessor == 0 || PrevAccessor == T + 1u)) {
      // Reentrant own sequence (e.g. repeated acquisitions with no
      // contention in between).
      Sp.Last = C;
      ++S.SpanMerges;
      return;
    }
    closeSpan(S, T, L, Sp);
  }
  // An RMW always heads a new span: it reads Src and writes, so the span is
  // Own-kind with an (optional) incoming dependence.
  Sp.Active = true;
  Sp.HeadIsRmw = true;
  Sp.Kind = SpanKind::Own;
  Sp.SrcPacked = Src;
  Sp.First = Sp.Last = C;
  if (!Opts.EnableO1 || Anchor) {
    // Without O1 (or for an anchor access) the span must not grow: emit it
    // immediately.
    closeSpan(S, T, L, Sp);
  }
}

uint64_t LightRecorder::onSyscall(ThreadId T, FunctionRef<uint64_t()> Compute) {
  uint64_t Value = Compute();
  PerThread &S = state(T);
  S.Syscalls.push_back({T, Value});
  if (EpochsOn)
    maybeEpochFlush(S, T);
  return Value;
}

void LightRecorder::attachMessageLog(const std::string &Path) {
  std::lock_guard<std::mutex> Guard(MsgMutex);
  MsgLog = std::make_unique<MessageLogWriter>(Path);
}

void LightRecorder::onMessage(ThreadId T, uint32_t Chan, uint64_t Seq,
                              int64_t Value, bool IsSend) {
  std::lock_guard<std::mutex> Guard(MsgMutex);
  if (!MsgLog)
    return;
  MessageRecord R;
  R.Chan = Chan;
  R.IsSend = IsSend;
  R.Seq = Seq;
  R.Value = Value;
  // The caller fires this right after the ghost chan RMW, so the thread's
  // current counter *is* that RMW's AccessId — the correlation key the
  // NodeSetLoader uses to anchor cross-node edges in the span stream.
  R.Access = AccessId{T, state(T).Ctr};
  MsgLog->append(R);
}

void LightRecorder::onThreadFinish(ThreadId T) {
  PerThread &S = state(T);
  closeAllSpans(S, T);
  // A thread that ends inside a lock section still flushes its deferred
  // epoch here, so deferral never outlives the thread.
  if (S.EpochDeferred)
    flushEpoch(S, T);
}

RecordingLog LightRecorder::finish(const ThreadRegistry *Registry) {
  RecordingLog Log;
  Counter MaxThread = 0;
  size_t TotalSpans = 0, TotalSyscalls = 0;
  for (uint32_t T = 0; T < MaxThreads; ++T) {
    PerThread &S = *Threads[T];
    closeAllSpans(S, static_cast<ThreadId>(T));
    TotalSpans += S.Spans.size();
    TotalSyscalls += S.Syscalls.size();
  }
  Log.Spans.reserve(TotalSpans);
  Log.Syscalls.reserve(TotalSyscalls);
  for (uint32_t T = 0; T < MaxThreads; ++T) {
    PerThread &S = *Threads[T];
    if (S.Ctr)
      MaxThread = T;
    Log.Spans.insert(Log.Spans.end(), S.Spans.begin(), S.Spans.end());
    Log.Syscalls.insert(Log.Syscalls.end(), S.Syscalls.begin(),
                        S.Syscalls.end());
  }
  Log.FinalCounters.resize(MaxThread + 1, 0);
  for (uint32_t T = 0; T <= MaxThread; ++T)
    Log.FinalCounters[T] = Threads[T]->Ctr;
  if (const ThreadRegistry *Reg = Registry ? Registry : SpawnSource)
    Log.Spawns = Reg->spawnTable();
  if (Opts.EnableO2)
    Log.Guards = Guards;

  if (EpochsOn) {
    // Final durable segment: whatever each thread still holds, the complete
    // counter table and spawn table, then the clean-close marker.
    CompressedSegmentEncoder Enc;
    for (uint32_t T = 0; T < MaxThreads; ++T) {
      PerThread &S = *Threads[T];
      if (S.Ctr || S.DurableSpans < S.Spans.size() ||
          S.DurableSyscalls < S.Syscalls.size())
        appendPendingSections(Enc, S, static_cast<ThreadId>(T));
    }
    if (!Log.Spawns.empty())
      Enc.addSpawns(Log.Spawns);
    writeDurableSegment(Enc);
    std::lock_guard<std::mutex> Guard(EpochMutex);
    if (Durable)
      Durable->closeClean();
  }

  {
    std::lock_guard<std::mutex> Guard(MsgMutex);
    if (MsgLog)
      MsgLog->finish();
  }

  // Publish the per-thread tallies into the process registry. This is the
  // only place recording telemetry touches shared metric storage.
  uint64_t Accesses = 0, Merges = 0, Retries = 0, Elided = 0, Contended = 0,
           Deferred = 0;
  for (const auto &S : Threads) {
    Accesses += S->Ctr;
    Merges += S->SpanMerges;
    Retries += S->Retries;
    Elided += S->GuardedElided;
    Contended += S->StripeContended;
    Deferred += S->EpochsDeferred;
  }
  obs::Registry &Reg = obs::Registry::global();
  Reg.counter("record.accesses").add(Accesses);
  Reg.counter("record.spans").add(Log.Spans.size());
  Reg.counter("record.span_merges").add(Merges);
  Reg.counter("record.read_retries").add(Retries);
  Reg.counter("record.elided_guarded").add(Elided);
  Reg.counter("record.stripe_contention").add(Contended);
  Reg.counter("record.epochs_deferred").add(Deferred);
  Reg.counter("record.syscalls").add(Log.Syscalls.size());
  Reg.counter("record.long_integers").add(longIntegersRecorded());
  return Log;
}

uint64_t LightRecorder::longIntegersRecorded() const {
  uint64_t Total = 0;
  for (const auto &S : Threads)
    Total += S->Spans.size() * 4 + S->Syscalls.size() * 2;
  return Total;
}

uint64_t LightRecorder::readRetries() const {
  uint64_t Total = 0;
  for (const auto &S : Threads)
    Total += S->Retries;
  return Total;
}

uint64_t LightRecorder::stripeContentions() const {
  uint64_t Total = 0;
  for (const auto &S : Threads)
    Total += S->StripeContended;
  return Total;
}

uint64_t LightRecorder::epochsDeferred() const {
  uint64_t Total = 0;
  for (const auto &S : Threads)
    Total += S->EpochsDeferred;
  return Total;
}
