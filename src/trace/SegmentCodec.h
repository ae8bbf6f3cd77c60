//===- trace/SegmentCodec.h - Segment payload encodings ---------*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Encoders and decoders for the segment payloads stored inside the durable
/// container (support/DurableLog): the compressed LIGHT003 varint stream,
/// which RecordingLog::saveCompact() and the epoch recorder write, and the
/// word-oriented sections of the legacy LIGHT002 format, which are only
/// read. The streaming TraceSegmentReader and whole-file load() decode
/// through them.
///
/// LIGHT003 payload layout:
///
///   word 0:          payload byte count B
///   words 1..:       ceil(B/8) words holding the byte stream, zero-padded
///
/// The byte stream is a sequence of sections [varint tag][varint count]
/// [records], with the LogSection tags and append/replace semantics. Span
/// records are delta-encoded:
///
///   flags            1 byte: kind(2) | src-valid(1)
///   loc              zigzag delta vs. the previous span in this section
///   thread           varint
///   first            zigzag delta vs. this thread's previous First in
///                    this section
///   last - first     varint
///   src thread       varint        (src-valid only)
///   src count        zigzag delta vs. First (src-valid only)
///
/// All delta bases reset at every section (hence every segment), so any
/// salvaged segment prefix decodes independently — the container's salvage
/// guarantees hold per segment.
///
/// Every encoder checks the wire-width limits (spanEncodable, the Ids.h
/// Max* constants) before packing and reports an overflow as a structured
/// failure plus a `record.overflow` metric; decode failures are equally
/// structured (a false return tears the tail, never UB).
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_TRACE_SEGMENTCODEC_H
#define LIGHT_TRACE_SEGMENTCODEC_H

#include "trace/RecordingLog.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace light {

/// Spawn-record word of the legacy LIGHT001 and LIGHT002 formats:
/// parent(16) | spawnIndex(32) | child(16).
SpawnRecord unpackSpawnWord(uint64_t W);

/// Decodes one LIGHT002 word-oriented segment payload into \p Log
/// (append/replace semantics per LogSection). The payload already passed
/// its CRC, so a false return means a producer bug or version drift, not
/// disk corruption — but it is still reported, never trusted. \p Log may
/// hold a partially-applied segment after a failure.
bool decodeSegmentWords(const std::vector<uint64_t> &P, RecordingLog &Log);

/// Same for a LIGHT003 compressed segment payload.
bool decodeSegmentCompressed(const std::vector<uint64_t> &P,
                             RecordingLog &Log);

/// LEB128 primitives of the LIGHT003 byte stream, exposed for the
/// boundary-truncation property tests.
namespace v3 {
void putVarint(std::vector<uint8_t> &Out, uint64_t V);
void putZigzag(std::vector<uint8_t> &Out, int64_t V);
} // namespace v3

/// Builds one LIGHT003 segment payload. Construct one per segment: the
/// delta bases live in the encoder, which is what makes salvaged prefixes
/// independently decodable.
class CompressedSegmentEncoder {
public:
  /// Appends one section each. A false return means a record exceeded a
  /// wire width: record.overflow was bumped, the section was left out (the
  /// payload is unchanged), and overflowed() latches.
  bool addSpans(const DepSpan *Spans, size_t N);
  bool addSyscalls(const SyscallRecord *Calls, size_t N);
  bool addSpawns(const std::vector<SpawnRecord> &Spawns);
  bool addCounters(const std::vector<std::pair<ThreadId, Counter>> &Updates);
  bool addGuards(const GuardSpec &Guards);

  bool empty() const { return Bytes.empty(); }
  uint64_t byteSize() const { return Bytes.size(); }

  /// True once any section was left out for exceeding a wire width.
  bool overflowed() const { return Overflowed; }

  /// Word-wraps the byte stream for the durable container.
  std::vector<uint64_t> finish() const;

private:
  std::vector<uint8_t> Bytes;
  bool Overflowed = false;

  bool overflow();
};

} // namespace light

#endif // LIGHT_TRACE_SEGMENTCODEC_H
