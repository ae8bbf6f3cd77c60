//===- support/DurableLog.h - Checksummed segmented log files ---*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durable on-disk container: a fixed header word followed by
/// length-framed, CRC32C-checksummed segments of 64-bit words. The recorder
/// appends one segment per epoch (and flushes it to the OS immediately), so
/// a process that is SIGKILL'd or crashes mid-run leaves a file whose valid
/// prefix is exactly the epochs that completed — DurableLogCursor recovers
/// that prefix and reports how much of the tail was torn.
///
/// Layout (all 64-bit little-endian words):
///
///   word 0:            file magic "LIGHT003" (written) or "LIGHT002"
///                      (legacy, read only)
///   per segment:       [segment magic "LSEGMENT"]
///                      [N = payload word count]
///                      [meta = (sequence number << 32) | CRC32C(payload)]
///                      [N payload words]
///   clean close:       a zero-payload segment (N == 0) written by
///                      closeClean(); its absence marks a crashed producer.
///
/// The segment payload is opaque at this layer; the file magic names its
/// encoding, which trace/SegmentCodec defines.
///
/// Fault-injection sites honored here (support/FaultInjection.h):
///   io.open_fail        constructor fails as if open(2) did
///   io.short_write      a segment write is torn mid-way and reports failure
///   io.close_fail       closeClean() fails as if fclose(3) did
///   io.dirsync_fail     the parent-directory fsync after file creation
///                       fails as if fsync(2) did — the crash window where
///                       the file's directory entry itself is lost
///   log.crash_at_epoch  the Nth writeSegment() simulates a hard kill: a few
///                       torn bytes of the segment reach the disk
///                       (log.torn_bytes, default 12) and every later write
///                       is silently lost, exactly like SIGKILL
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_SUPPORT_DURABLELOG_H
#define LIGHT_SUPPORT_DURABLELOG_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace light {

/// File magic of the container every writer produces: LIGHT003, whose
/// segment payloads are the varint byte stream of trace/SegmentCodec.
constexpr uint64_t CompressedFileMagic = 0x4c49474854303033ull; // "LIGHT003"

/// File magic of the legacy LIGHT002 container — the same framing,
/// checksums, sequence numbers, clean-close marker, and salvage rules,
/// carrying word-oriented payloads. Read only: the cursor accepts it so old
/// logs still load.
constexpr uint64_t DurableFileMagic = 0x4c49474854303032ull; // "LIGHT002"

/// Frame magic opening every segment.
constexpr uint64_t DurableSegmentMagic = 0x4c5345474d454e54ull; // "LSEGMENT"

/// Appends checksummed segments to a log file, flushing each one to the OS
/// so completed epochs survive the producer's death.
class DurableLogWriter {
public:
  /// Opens \p Path and writes the LIGHT003 file header.
  explicit DurableLogWriter(std::string Path);
  ~DurableLogWriter();

  DurableLogWriter(const DurableLogWriter &) = delete;
  DurableLogWriter &operator=(const DurableLogWriter &) = delete;

  bool ok() const { return Ok; }
  const std::string &error() const { return Err; }
  const std::string &path() const { return Path; }

  /// Appends one framed, checksummed segment and flushes it. Returns false
  /// on I/O failure (error() describes it). After a simulated hard kill
  /// (log.crash_at_epoch) the call returns true but the data is lost, just
  /// as a real SIGKILL would lose it.
  bool writeSegment(const uint64_t *Words, size_t N) {
    return writeFrame(Words, N, /*IsData=*/true);
  }
  bool writeSegment(const std::vector<uint64_t> &Words) {
    return writeSegment(Words.data(), Words.size());
  }

  /// Writes the clean-close marker segment and closes the file. Returns
  /// false on failure.
  bool closeClean();

  /// Closes the file without the clean-close marker — the error/crash path.
  void abandon();

  /// Data segments durably written: what a reader recovers from the file,
  /// so the clean-close marker and anything after a simulated kill are
  /// excluded.
  uint64_t segmentsWritten() const { return Segments; }

  /// Total words written including framing.
  uint64_t wordsWritten() const { return Words; }

  /// True once a log.crash_at_epoch fault has fired on this writer.
  bool crashed() const { return Dead; }

private:
  std::string Path;
  std::FILE *File = nullptr;
  bool Ok = false;
  bool Dead = false;
  std::string Err;
  uint64_t Frames = 0;   ///< frames written: the next sequence number
  uint64_t Segments = 0; ///< data frames among them
  uint64_t Words = 0;

  /// Appends one frame (a data segment, or the clean-close marker).
  bool writeFrame(const uint64_t *Payload, size_t N, bool IsData);
  void fail(const std::string &What);
};

/// Streams the segments of a LIGHT003 (or LIGHT002) container one at a time,
/// holding at most one segment payload in memory: a 10^8-access recording
/// is gigabytes on disk, and both the offline solver and CI salvage of a
/// torn log must walk it without materializing it.
///
/// Validation — framing magic, payload length against the real file size,
/// sequence numbers, CRC32C — stops at the first invalid segment, reporting
/// everything from there on as the torn tail. Corruption never fails the
/// walk; it just shortens the recovered prefix.
class DurableLogCursor {
public:
  explicit DurableLogCursor(const std::string &Path);
  ~DurableLogCursor();

  DurableLogCursor(const DurableLogCursor &) = delete;
  DurableLogCursor &operator=(const DurableLogCursor &) = delete;

  /// False when the file could not be opened or lacks a recognized magic;
  /// error() says why.
  bool ok() const { return HeaderOk; }
  const std::string &error() const { return Err; }

  /// The file magic word (DurableFileMagic or CompressedFileMagic).
  uint64_t magic() const { return Magic; }

  /// What next() found.
  enum class Item {
    Segment,    ///< one valid payload delivered
    CleanClose, ///< trailing clean-close marker: producer finished
    TornTail,   ///< invalid frame/checksum: tail counted, stream over
    End,        ///< exact end of file with no clean-close marker
  };

  /// Advances to the next segment, filling \p Payload (reused, resized)
  /// when it returns Item::Segment. After TornTail/CleanClose/End the
  /// stream is exhausted and further calls return the same terminal item.
  Item next(std::vector<uint64_t> &Payload);

  /// Valid segments delivered so far.
  uint64_t segmentsRead() const { return Segments; }

  /// Words in the torn tail (nonzero only after Item::TornTail).
  uint64_t wordsDropped() const { return Dropped; }

private:
  std::FILE *File = nullptr;
  bool HeaderOk = false;
  uint64_t Magic = 0;
  std::string Err;
  uint64_t TotalWords = 0; ///< file size in whole words (torn byte dropped)
  uint64_t Pos = 0;        ///< words consumed
  uint64_t Segments = 0;
  uint64_t Dropped = 0;
  Item Terminal = Item::End;
  bool Done = false;

  Item finish(Item I);
};

} // namespace light

#endif // LIGHT_SUPPORT_DURABLELOG_H
