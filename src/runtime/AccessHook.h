//===- runtime/AccessHook.h - Instrumentation hook interface ----*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface between instrumented shared accesses and whatever scheme is
/// attached to the execution: a recorder (Light, Leap, Stride, ...), a
/// replay director, or nothing. Both execution substrates — the MIR
/// interpreter and the real-thread runtime API — funnel every instrumented
/// shared access, ghost synchronization access (Section 4.3), and
/// nondeterministic syscall (Section 3.2) through this interface.
///
/// The hook *wraps* the actual data operation (the Perform callback) so a
/// scheme can establish the atomic section Algorithm 1 requires around the
/// program access: Light takes a lock bit in the location's last-write word
/// around writes, uses the optimistic retry protocol around reads
/// (re-invoking Perform on retry),
/// Leap takes its per-location vector lock, and the replay director blocks
/// until the access's turn in the solved schedule arrives.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_RUNTIME_ACCESSHOOK_H
#define LIGHT_RUNTIME_ACCESSHOOK_H

#include "support/FunctionRef.h"
#include "trace/Ids.h"

#include <atomic>

namespace light {

/// Per-location metadata: the "last-write map lw" of Algorithm 1 plus the
/// last-accessor marker used to detect interleaving for optimization O1
/// (Lemma 4.3). LastWrite is the moral equivalent of the paper's volatile
/// lw(o.f); each scheme picks the std::atomic orderings its protocol needs.
struct LocMeta {
  /// Packed AccessId of the last write (0 = never written). A packed id
  /// never sets bit 63; LightRecorder uses it as the write lock bit.
  std::atomic<uint64_t> LastWrite{0};
  /// ThreadId + 1 of the last accessing thread (0 = none). Used only to
  /// close O1 spans when another thread touches the location.
  std::atomic<uint32_t> LastAccessor{0};

  LocMeta() = default;
  LocMeta(const LocMeta &) = delete;
  LocMeta &operator=(const LocMeta &) = delete;
};

/// The instrumentation hook. Implementations must be thread-safe for use by
/// the real-thread runtime; the cooperative MIR interpreter calls them from
/// a single host thread.
class AccessHook {
public:
  virtual ~AccessHook();

  /// A shared write by thread \p T to location \p L. \p Perform executes the
  /// actual store; the hook decides how to synchronize around it (and, in
  /// replay, whether to execute it at all — blind writes are suppressed per
  /// Section 4.2).
  virtual void onWrite(ThreadId T, LocationId L, LocMeta &M,
                       FunctionRef<void()> Perform) = 0;

  /// A shared read. \p Perform executes the actual load and must be safe to
  /// invoke repeatedly (the optimistic read protocol of Section 2.3 retries
  /// it when the last write changed mid-flight).
  virtual void onRead(ThreadId T, LocationId L, LocMeta &M,
                      FunctionRef<void()> Perform) = 0;

  /// An atomic read-modify-write: lock acquisition (ghost read + write of
  /// the lock word, Section 4.3) and similar. Counts as a single access.
  /// Atomicity across Perform and the metadata update is the caller's
  /// context (e.g. the lock region itself).
  virtual void onRmw(ThreadId T, LocationId L, LocMeta &M,
                     FunctionRef<void()> Perform) = 0;

  /// A nondeterministic environment read (time(), random input). Recording
  /// schemes invoke \p Compute and log the value; replay returns the logged
  /// value without invoking \p Compute (Section 3.2).
  virtual uint64_t onSyscall(ThreadId T, FunctionRef<uint64_t()> Compute) = 0;

  /// A channel endpoint operation by thread \p T: message \p Seq on channel
  /// \p Chan was sent (\p IsSend) or delivered, carrying integer payload
  /// \p Value. Invoked immediately after the operation's ghost chan RMW, so
  /// counterOf(T) is the access counter of that RMW — the correlation key a
  /// durable message log needs to match messages back to recorded accesses.
  /// Default: ignored (only multi-node recording attaches a message log).
  virtual void onMessage(ThreadId T, uint32_t Chan, uint64_t Seq,
                         int64_t Value, bool IsSend);

  /// Thread \p T finished; flush its thread-local state.
  virtual void onThreadFinish(ThreadId T);

  /// Current access counter D(T) (0 if the thread never accessed anything).
  virtual Counter counterOf(ThreadId T) const = 0;
};

/// Upper bound on concurrently known thread ids across one execution.
constexpr uint32_t MaxThreads = 1024;

/// Cache-line padded per-thread access counters D(t) (Algorithm 1). The
/// padding keeps counter bumps free of false sharing — counters are the one
/// piece of state every scheme touches on every access.
struct PerThreadCounters {
  struct alignas(64) Slot {
    std::atomic<Counter> Value{0};
  };
  Slot Slots[MaxThreads];

  /// Increments and returns the new counter for \p T. Relaxed: the slot is
  /// only written by thread T itself.
  Counter bump(ThreadId T) {
    Counter C = Slots[T].Value.load(std::memory_order_relaxed) + 1;
    Slots[T].Value.store(C, std::memory_order_relaxed);
    return C;
  }

  Counter get(ThreadId T) const {
    return Slots[T].Value.load(std::memory_order_relaxed);
  }
};

/// Pass-through hook: executes accesses directly. Used for baseline
/// (uninstrumented-overhead) measurements and plain functional runs. Still
/// maintains per-thread counters so bug reports correlate across schemes.
class NullHook : public AccessHook {
  PerThreadCounters Counters;

public:
  NullHook();

  void onWrite(ThreadId T, LocationId L, LocMeta &M,
               FunctionRef<void()> Perform) override;
  void onRead(ThreadId T, LocationId L, LocMeta &M,
              FunctionRef<void()> Perform) override;
  void onRmw(ThreadId T, LocationId L, LocMeta &M,
             FunctionRef<void()> Perform) override;
  uint64_t onSyscall(ThreadId T, FunctionRef<uint64_t()> Compute) override;
  Counter counterOf(ThreadId T) const override;
};

} // namespace light

#endif // LIGHT_RUNTIME_ACCESSHOOK_H
