//===- trace/RecordingLog.h - The on-disk recording -------------*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The complete recording of one run: the merged flow-dependence spans of
/// all threads, per-thread syscall value streams, the thread-identity table,
/// and final per-thread access counters. This is what the Light recorder
/// dumps to disk and what the replay phase consumes.
///
/// One format is written and three are read:
///
///  * LIGHT003 — the only format the program writes: the durable segmented
///    container (support/DurableLog) — checksummed, length-framed segments
///    — carrying varint/delta-compressed section payloads
///    (trace/SegmentCodec). The recorder appends one segment per epoch, so
///    a crashed process leaves a salvageable prefix; saveCompact() writes a
///    finished log as one segment. Delta bases reset per segment, so every
///    salvaged prefix decodes independently and streams one segment at a
///    time.
///
///  * LIGHT002 — read only: the same container with word-oriented section
///    payloads, written by earlier versions of the recorder.
///
///  * LIGHT001 — read only: one magic word followed by the five sections as
///    plain 64-bit words, valid only when written to completion.
///
/// load() dispatches on the magic word, so all formats stay loadable
/// through one entry point and report what was lost through
/// LogLoadReport; the durable formats stream through trace/SegmentReader
/// with a bounded decode buffer. tests/data/legacy holds golden LIGHT001
/// and LIGHT002 logs that pin the readers.
///
/// Space accounting: the paper measures space in "Long-integer" units
/// (Section 5.2), directly counting the long integers recorded. spaceLongs()
/// returns exactly the number of 64-bit words the log occupies in the plain
/// word encoding of LIGHT001, minus its magic word (all sections, not just
/// spans — spaceBreakdown() itemizes), so Figure 5 / Figure 7b count every
/// recorded long integer without writing a file.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_TRACE_RECORDINGLOG_H
#define LIGHT_TRACE_RECORDINGLOG_H

#include "trace/DepSpan.h"
#include "trace/GuardSpec.h"

#include <string>
#include <vector>

namespace light {

/// Section tags inside a durable segment payload (LIGHT003, and the legacy
/// LIGHT002). Each section is [tag][record count][records...]; the record
/// packing differs per format (trace/SegmentCodec). Spans and Syscalls
/// sections append to
/// what earlier segments carried; Spawns, Counters, and the Guard sections
/// supersede it (the recorder re-emits them as they grow, and counters only
/// ever move forward).
enum class LogSection : uint64_t {
  Spans = 1,        ///< dependence spans
  Syscalls = 2,     ///< (thread, value) pairs
  Spawns = 3,       ///< spawn records; replaces the table
  Counters = 4,     ///< (thread, counter) pairs; per-thread maximum wins
  GuardExact = 5,   ///< guarded LocationIds; replaces the set
  GuardFields = 6,  ///< guarded field indices; replaces the set
  GuardGlobals = 7, ///< guarded global ids; replaces the set
};

/// What load() learned about the file it parsed — which format it was,
/// whether the producer closed it cleanly, and how much of a torn tail was
/// cut during salvage.
struct LogLoadReport {
  uint32_t FormatVersion = 0;    ///< 1, 2, or 3 (LIGHT001/002/003)
  bool CleanClose = false;       ///< durable clean-close marker present
  bool Salvaged = false;         ///< recovered a prefix of a crashed log
  uint64_t SegmentsRecovered = 0;///< durable segments decoded
  uint64_t SegmentsDropped = 0;  ///< segments cut with the torn tail
  uint64_t WordsDropped = 0;     ///< words cut with the torn tail
  std::string Error;             ///< set when load() returns false
};

/// A full recording of one execution.
struct RecordingLog {
  /// All dependence spans, merged from the per-thread local buffers.
  std::vector<DepSpan> Spans;

  /// Recorded nondeterministic syscall values, in per-thread order.
  std::vector<SyscallRecord> Syscalls;

  /// Thread-identity table for replay-stable thread ids.
  std::vector<SpawnRecord> Spawns;

  /// Final access-counter value per thread id (index = ThreadId); used by
  /// the replayer to sanity-check termination. After salvaging a crashed
  /// durable log the values are synthesized from the recovered spans when
  /// the recorded table stops short of them.
  std::vector<Counter> FinalCounters;

  /// Locations whose field-level recording was subsumed by lock-order
  /// recording (optimization O2 / Lemma 4.2). The replayer leaves accesses
  /// to these locations ungated and never treats their writes as blind.
  GuardSpec Guards;

  /// Per-section size in long-integer (64-bit word) units of the plain
  /// LIGHT001 word encoding, count words included. Exposed so the space
  /// benches can itemize where the trace bytes go.
  struct SpaceBreakdown {
    uint64_t SpanWords = 0;    ///< 1 + 4 per span
    uint64_t SyscallWords = 0; ///< 1 + 2 per record
    uint64_t SpawnWords = 0;   ///< 1 + 1 per record
    uint64_t CounterWords = 0; ///< 1 + 1 per thread
    uint64_t GuardWords = 0;   ///< 3 + 1 per guard entry
    uint64_t total() const {
      return SpanWords + SyscallWords + SpawnWords + CounterWords +
             GuardWords;
    }
  };
  SpaceBreakdown spaceBreakdown() const;

  /// Number of long-integer units the log occupies in the plain word
  /// encoding: every section (spans, syscalls, spawns, counters, guards),
  /// i.e. a LIGHT001 file's size in words minus its magic word.
  uint64_t spaceLongs() const { return spaceBreakdown().total(); }

  /// Serializes the log to \p Path as a LIGHT003 compressed container: one
  /// segment holding every section, then the clean-close marker. The
  /// payload is encoded before the file is created, so a record overflow
  /// leaves no file behind. Returns the number of long-integer units
  /// written (including framing), or 0 on I/O failure or record overflow.
  uint64_t saveCompact(const std::string &Path) const;

  /// Loads a LIGHT003 log written by saveCompact() or an epoch recorder
  /// (crashed or not), or a legacy LIGHT001/LIGHT002 log — the magic word
  /// selects the parser. A durable file without its clean-close marker is
  /// salvaged: the longest valid segment prefix becomes the log and the
  /// call still succeeds. Durable formats stream through TraceSegmentReader
  /// (bounded memory). Returns false on I/O error, unrecognized magic, or
  /// (LIGHT001 only) any truncation.
  bool load(const std::string &Path);

  /// Same, and additionally reports format, clean/salvage status, and how
  /// much of a torn tail was dropped.
  bool load(const std::string &Path, LogLoadReport &Report);

  /// Human-readable dump for debugging and the examples.
  std::string str() const;
};

/// What the CI pipeline's salvage stage recovered from a (possibly torn,
/// possibly absent) recording left behind by a dead child.
struct SalvageOutcome {
  /// A log with at least a recognized header was found and parsed; Log and
  /// Report are meaningful. False means there is nothing to salvage — no
  /// file, or not a recording — and Error says why.
  bool Loaded = false;
  /// Loaded and at least one segment's worth of data survived: the "valid
  /// log prefix exists" predicate the CI verdict rules key on.
  bool UsablePrefix = false;
  RecordingLog Log;
  LogLoadReport Report;
  std::string Error;
};

/// The CI salvage entry point: loads \p Path tolerating every failure mode
/// a dead recording child can leave behind (torn tail, missing clean-close,
/// missing file). Never throws, never aborts — a failed salvage is a
/// verdict input, not an error. Honors the `ci.salvage_truncate` fault
/// site: when armed, the last N (param, default 1) recovered segments are
/// dropped after the scan, deterministically simulating a tear deeper than
/// the one on disk.
SalvageOutcome salvageRecording(const std::string &Path);

} // namespace light

#endif // LIGHT_TRACE_RECORDINGLOG_H
