//===- trace/SegmentReader.h - Streaming epoch-segment reader ---*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streams a LIGHT003 (or legacy LIGHT002) durable recording one epoch
/// segment at a time. This is the spine of the scale pipeline: RecordingLog::load() and
/// CI salvage run on it with a bounded decode buffer (one segment plus the
/// holdback window), and the windowed offline solver consumes segments as
/// they decode instead of materializing the whole file.
///
/// Each next() applies one segment to the caller's RecordingLog accumulator
/// with exactly the whole-file semantics: Spans/Syscalls append, the
/// control sections (Spawns, Counters, Guards) supersede. A windowed
/// consumer snapshots Log.Spans.size() around next() to obtain the
/// segment's span delta.
///
/// Salvage semantics match the historical whole-file load byte for byte:
/// validation stops at the first torn/corrupt frame, an undecodable (but
/// checksummed) segment cuts everything from itself on, and the
/// `ci.salvage_truncate` fault site drops the newest N validated segments.
/// The truncate site is implemented as a *holdback window*: a validated
/// segment is only surfaced once N newer segments have validated behind
/// it, so the drop needs no second pass over the file.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_TRACE_SEGMENTREADER_H
#define LIGHT_TRACE_SEGMENTREADER_H

#include "support/DurableLog.h"
#include "trace/RecordingLog.h"

#include <deque>
#include <string>
#include <vector>

namespace light {

class TraceSegmentReader {
public:
  /// Opens \p Path and reads the container header. Arms the holdback
  /// window when the ci.salvage_truncate fault site fires.
  explicit TraceSegmentReader(const std::string &Path);

  /// False when the file is missing or carries no recognized magic;
  /// report().Error says why.
  bool ok() const { return Ok; }

  /// 2 for LIGHT002, 3 for LIGHT003, 0 when !ok().
  uint32_t formatVersion() const { return Report_.FormatVersion; }

  /// Decodes the next segment into \p Log. Returns true while a segment
  /// was applied; false once the stream is exhausted (cleanly, torn, or on
  /// an undecodable segment — report() distinguishes them).
  bool next(RecordingLog &Log);

  /// Call once next() has returned false: seals the guards, synthesizes
  /// the replay horizon for salvaged logs, and publishes the salvage
  /// metrics. The report is final after this.
  void finish(RecordingLog &Log);

  const LogLoadReport &report() const { return Report_; }

private:
  DurableLogCursor Cursor;
  LogLoadReport Report_;
  bool Ok = false;
  bool CursorDone = false;   ///< container stream consumed
  bool Done = false;         ///< next() will never deliver again
  bool Finalized = false;    ///< finish() ran
  bool SawCleanClose = false;
  bool TruncateFired = false;
  bool DecodeFailed = false;
  uint64_t HoldbackN = 0;
  std::deque<std::vector<uint64_t>> Holdback;
  std::vector<uint64_t> Buf;

  bool decode(const std::vector<uint64_t> &Payload, RecordingLog &Log);
  void pump();
  void dropHeldAndDrain();
};

} // namespace light

#endif // LIGHT_TRACE_SEGMENTREADER_H
