//===- support/BinaryIO.h - Long-integer log serialization ------*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary writers/readers for files of 64-bit words: Leap's log dump, the
/// message side logs, the windowed solver's spill file, and the legacy
/// LIGHT001 reader. The evaluation counts space in "Long-integer" units
/// (Section 5.2); LongWriter both serializes and counts those units.
/// (Light's own count is RecordingLog::spaceLongs(), and its log reaches
/// disk as LIGHT003 through support/DurableLog.)
///
/// I/O failures are propagated, not asserted: a writer that fails to open or
/// suffers a short write reports it through ok()/error() (and keeps
/// accepting puts, which are counted but dropped — the caller decides
/// whether a lossy log is fatal), and a reader that is drained past its end
/// reports overran() instead of invoking undefined behavior. The
/// fault-injection sites io.open_fail, io.short_write, and io.close_fail
/// (support/FaultInjection.h) exercise exactly these paths.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_SUPPORT_BINARYIO_H
#define LIGHT_SUPPORT_BINARYIO_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace light {

/// Appends 64-bit little-endian words to a file, buffering in memory and
/// flushing once the buffer exceeds a threshold — the same buffered dump
/// scheme all three tools were configured with in Section 5.2 to avoid
/// out-of-memory crashes in long-running benchmarks.
class LongWriter {
  std::string Path;
  std::FILE *File = nullptr;
  std::vector<uint64_t> Buffer;
  size_t FlushThreshold;
  uint64_t Written = 0;
  bool Failed = false;
  std::string Err;

public:
  /// Opens \p Path for writing. \p FlushThresholdWords bounds the in-memory
  /// buffer; 0 keeps everything buffered until finish(). A failed open is
  /// reported through ok()/error(), not asserted.
  explicit LongWriter(std::string Path, size_t FlushThresholdWords = 1 << 16);
  ~LongWriter();

  LongWriter(const LongWriter &) = delete;
  LongWriter &operator=(const LongWriter &) = delete;

  /// True while no open/write/close failure has occurred.
  bool ok() const { return !Failed; }

  /// Description of the first failure (empty while ok()).
  const std::string &error() const { return Err; }

  /// Appends one long-integer unit. Accepted (and counted) even after a
  /// failure so space accounting stays meaningful; the words are dropped.
  void put(uint64_t Word) {
    Buffer.push_back(Word);
    ++Written;
    if (FlushThreshold && Buffer.size() >= FlushThreshold)
      flush();
  }

  /// Forces buffered words to disk. Returns false (and records the error)
  /// on a short write or an earlier open failure.
  bool flush();

  /// Flushes and closes the file. Returns the total long-integer count;
  /// check ok() to learn whether all of them actually reached the disk.
  uint64_t finish();

  /// Total long-integer units written so far (including buffered ones).
  uint64_t wordsWritten() const { return Written; }
};

/// Reads back a file produced by LongWriter.
class LongReader {
  std::vector<uint64_t> Words;
  size_t Pos = 0;

public:
  /// Loads the whole file; ok() reports whether the open succeeded.
  explicit LongReader(const std::string &Path);

  bool ok() const { return Loaded; }
  bool atEnd() const { return Pos >= Words.size(); }
  size_t size() const { return Words.size(); }

  /// Returns the next word. Reading past the end returns 0 and latches
  /// overran() — a checked error, not UB; parsers test it once at the end
  /// instead of guarding every get().
  uint64_t get() {
    if (Pos >= Words.size()) {
      Overran = true;
      return 0;
    }
    return Words[Pos++];
  }

  /// True once any get() was issued past the end of the data.
  bool overran() const { return Overran; }

private:
  bool Loaded = false;
  bool Overran = false;
};

/// Returns a fresh unique path under the system temporary directory. Unique
/// across concurrent processes: the name mixes in the PID alongside the
/// per-process serial.
std::string makeTempPath(const std::string &Stem);

} // namespace light

#endif // LIGHT_SUPPORT_BINARYIO_H
