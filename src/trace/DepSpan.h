//===- trace/DepSpan.h - Flow-dependence span records -----------*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unit of Light's recording: a flow-dependence *span*.
///
/// Section 4.1 of the paper records a flow dependence c_w -> c_r per first
/// read of a write (the `prec` map merges the remaining reads), and Lemma 4.3
/// (optimization O1) further compresses an uninterleaved same-thread access
/// sequence into its starting and ending accesses. Both compressions are
/// represented uniformly here:
///
///  * A ReadSpan (Src valid) is a maximal run of reads by one thread that all
///    observe the same source write Src. With `prec` only, the run is what
///    Algorithm 1 lines 7-9 merge; replay must keep every other write to the
///    location outside the interval (Src, Last].
///
///  * An OwnSpan (Src invalid) is an O1 run that *starts with the thread's
///    own write* and contains only the thread's own writes and reads of
///    those writes, with no interleaving access by another thread. Replay
///    must keep all other accesses to the location outside [First, Last].
///
///  * An InitSpan (Src invalid, IsRead) is a run of reads that observe the
///    location's initial value (no write has occurred yet). Replay must
///    schedule every write to the location after Last.
///
/// A plain single dependence c_w -> c_r is simply a ReadSpan with
/// First == Last. The constraint generator (core/ConstraintGen) turns spans
/// into the interval form of Equation 1.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_TRACE_DEPSPAN_H
#define LIGHT_TRACE_DEPSPAN_H

#include "trace/Ids.h"

namespace light {

/// The three span shapes distinguished above.
enum class SpanKind : uint8_t {
  Read = 0, ///< reads of a single source write (prec-merged dependence)
  Own = 1,  ///< O1 uninterleaved run starting with the thread's own write
  Init = 2, ///< reads of the location's initial (never-written) value
};

/// One recorded flow-dependence span.
struct DepSpan {
  LocationId Loc = InvalidLocation;
  /// Source write for SpanKind::Read; invalid otherwise.
  AccessId Src;
  /// The owning (reading/writing) thread.
  ThreadId Thread = 0;
  /// Counter of the first and last access in the span (inclusive; both
  /// belong to Thread). First == Last for an uncompressed dependence.
  Counter First = 0;
  Counter Last = 0;
  SpanKind Kind = SpanKind::Read;

  AccessId first() const { return AccessId(Thread, First); }
  AccessId last() const { return AccessId(Thread, Last); }

  /// True if the span contains writes (only OwnSpans do).
  bool hasWrites() const { return Kind == SpanKind::Own; }

  friend bool operator==(const DepSpan &A, const DepSpan &B) {
    return A.Loc == B.Loc && A.Src == B.Src && A.Thread == B.Thread &&
           A.First == B.First && A.Last == B.Last && A.Kind == B.Kind;
  }

  std::string str() const;
};

/// The legacy word formats pack the kind into the top two bits of the packed
/// (thread, first) word, capping span thread ids at 14 bits; LIGHT003 keeps
/// the same limit so every log stays readable by one validator.
constexpr ThreadId MaxSpanThread = (1u << 14) - 1;

/// True when \p S fits every width limit of the on-disk span encodings.
/// The LIGHT003 encoder checks this before packing so an overflowing
/// recording fails with a structured error instead of writing a corrupt
/// trace.
inline bool spanEncodable(const DepSpan &S) {
  return S.Thread <= MaxSpanThread && S.First <= S.Last &&
         S.Last <= MaxAccessCounter &&
         (!S.Src.valid() || S.Src.packable());
}

/// A recorded nondeterministic system-call value (time(), random input...),
/// replayed by substitution per Section 3.2 of the paper.
struct SyscallRecord {
  ThreadId Thread = 0;
  uint64_t Value = 0;
};

/// A thread-creation fact: the child's stable ThreadId together with the
/// spawner and per-spawner spawn index that identify "the same" thread in
/// the replay run.
struct SpawnRecord {
  ThreadId Parent = 0;
  uint32_t SpawnIndex = 0; ///< 0-based index among Parent's spawns
  ThreadId Child = 0;
};

} // namespace light

#endif // LIGHT_TRACE_DEPSPAN_H
