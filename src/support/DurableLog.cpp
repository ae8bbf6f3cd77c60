//===- support/DurableLog.cpp - Checksummed segmented log files -----------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "support/DurableLog.h"

#include "support/Crc32.h"
#include "support/FaultInjection.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

using namespace light;

namespace {

/// fsyncs the directory holding \p Path so the freshly created file's
/// directory entry itself is durable. A crash between creating a log file
/// and the directory flush would otherwise leave a file the salvage path
/// cannot even find — data safely on disk, name gone. Returns false on
/// failure (or when the io.dirsync_fail fault fires).
bool syncParentDir(const std::string &Path) {
  if (fault::Injector::global().shouldFire("io.dirsync_fail")) {
    errno = 0;
    return false;
  }
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? std::string(".")
                                               : Path.substr(0, Slash + 1);
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return false;
  bool Ok = ::fsync(Fd) == 0;
  ::close(Fd);
  return Ok;
}

} // namespace

void DurableLogWriter::fail(const std::string &What) {
  Ok = false;
  // errno is 0 when the failure was injected rather than real.
  if (Err.empty())
    Err = What + " '" + Path + "'" +
          (errno ? std::string(": ") + std::strerror(errno) : std::string());
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
}

DurableLogWriter::DurableLogWriter(std::string PathIn)
    : Path(std::move(PathIn)) {
  fault::Injector &Faults = fault::Injector::global();
  File = Faults.shouldFire("io.open_fail") ? nullptr
                                           : std::fopen(Path.c_str(), "wb");
  if (!File) {
    fail("cannot open durable log");
    return;
  }
  Ok = true;
  const uint64_t Magic = CompressedFileMagic;
  if (std::fwrite(&Magic, sizeof(Magic), 1, File) != 1) {
    fail("cannot write durable log header to");
    return;
  }
  std::fflush(File);
  // The segments themselves only need to reach the OS (fflush) — the salvage
  // guarantee is against process death, not power loss. The directory entry
  // is different: without fsyncing the parent directory a crash right after
  // creation can lose the *name*, and with it everything salvage depends on.
  if (!syncParentDir(Path)) {
    fail("cannot sync parent directory of");
    return;
  }
  ++Words;
}

DurableLogWriter::~DurableLogWriter() {
  if (File)
    abandon();
}

bool DurableLogWriter::writeFrame(const uint64_t *Payload, size_t N,
                                  bool IsData) {
  if (Dead)
    return true; // the simulated-killed process "keeps writing" into the void
  if (!Ok)
    return false;

  uint64_t Frame[3] = {DurableSegmentMagic, N,
                       (Frames << 32) |
                           crc32c(Payload, N * sizeof(uint64_t))};

  fault::Injector &Faults = fault::Injector::global();
  if (Faults.shouldFire("log.crash_at_epoch")) {
    // Simulated hard kill mid-write: a few bytes of the segment reach the
    // disk, then the "process" is gone — later writes are silently lost.
    size_t TornBytes = Faults.param("log.torn_bytes", 12);
    size_t FrameBytes = TornBytes < sizeof(Frame) ? TornBytes : sizeof(Frame);
    std::fwrite(Frame, 1, FrameBytes, File);
    if (TornBytes > sizeof(Frame))
      std::fwrite(Payload, 1, TornBytes - sizeof(Frame), File);
    std::fflush(File);
    Dead = true;
    return true;
  }

  bool Short = Faults.shouldFire("io.short_write");
  if (std::fwrite(Frame, sizeof(uint64_t), 3, File) != 3) {
    fail("short write to durable log");
    return false;
  }
  size_t ToWrite = Short ? N / 2 : N;
  // The clean-close marker has no payload; fwrite requires non-null even
  // for zero items.
  size_t Wrote =
      ToWrite ? std::fwrite(Payload, sizeof(uint64_t), ToWrite, File) : 0;
  if (Short || Wrote != N) {
    std::fflush(File);
    fail("short write to durable log");
    return false;
  }
  std::fflush(File);
  Words += 3 + N;
  ++Frames;
  Segments += IsData;
  return true;
}

bool DurableLogWriter::closeClean() {
  if (Dead) {
    abandon();
    return true;
  }
  if (!Ok)
    return false;
  if (!writeFrame(nullptr, 0, /*IsData=*/false))
    return false;
  std::FILE *F = File;
  File = nullptr;
  bool CloseFailed = fault::Injector::global().shouldFire("io.close_fail");
  if (std::fclose(F) != 0 || CloseFailed) {
    Ok = false;
    if (Err.empty())
      Err = "cannot close durable log '" + Path + "'";
    return false;
  }
  return true;
}

void DurableLogWriter::abandon() {
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Streaming cursor
//===----------------------------------------------------------------------===//

DurableLogCursor::DurableLogCursor(const std::string &Path) {
  File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    Err = "cannot open '" + Path + "'";
    return;
  }
  // Size the stream up front so payload lengths can be validated before
  // allocating — a corrupt length word must tear the tail, not trigger a
  // multi-gigabyte allocation. Whole words only: a torn trailing partial
  // word is dropped, exactly as fread with 8-byte items used to drop it.
  long Start = std::ftell(File);
  if (Start != 0 || std::fseek(File, 0, SEEK_END) != 0) {
    Err = "cannot size '" + Path + "'";
    std::fclose(File);
    File = nullptr;
    return;
  }
  long Bytes = std::ftell(File);
  std::fseek(File, 0, SEEK_SET);
  TotalWords = Bytes > 0 ? static_cast<uint64_t>(Bytes) / sizeof(uint64_t) : 0;

  if (TotalWords < 1 ||
      std::fread(&Magic, sizeof(Magic), 1, File) != 1 ||
      (Magic != DurableFileMagic && Magic != CompressedFileMagic)) {
    Err = "'" + Path + "' is not a LIGHT003 or LIGHT002 durable log";
    std::fclose(File);
    File = nullptr;
    return;
  }
  HeaderOk = true;
  Pos = 1;
}

DurableLogCursor::~DurableLogCursor() {
  if (File)
    std::fclose(File);
}

DurableLogCursor::Item DurableLogCursor::finish(Item I) {
  Done = true;
  Terminal = I;
  if (I == Item::TornTail)
    Dropped = TotalWords - Pos;
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
  return I;
}

DurableLogCursor::Item DurableLogCursor::next(std::vector<uint64_t> &Payload) {
  if (Done || !HeaderOk)
    return Done ? Terminal : Item::End;

  uint64_t Remaining = TotalWords - Pos;
  if (Remaining == 0)
    return finish(Item::End);
  if (Remaining < 3)
    return finish(Item::TornTail);

  uint64_t Frame[3];
  if (std::fread(Frame, sizeof(uint64_t), 3, File) != 3)
    return finish(Item::TornTail);
  uint64_t N = Frame[1];
  uint64_t Seq = Frame[2] >> 32;
  uint32_t Crc = static_cast<uint32_t>(Frame[2]);
  if (Frame[0] != DurableSegmentMagic || N > Remaining - 3 || Seq != Segments)
    return finish(Item::TornTail);

  Payload.resize(N);
  if (N && std::fread(Payload.data(), sizeof(uint64_t), N, File) != N)
    return finish(Item::TornTail);
  // Empty payloads checksum a valid (unread) pointer: a freshly-constructed
  // vector's data() may be null.
  if (crc32c(N ? Payload.data() : Frame, N * sizeof(uint64_t)) != Crc)
    return finish(Item::TornTail);

  if (N == 0 && Pos + 3 == TotalWords)
    return finish(Item::CleanClose);

  Pos += 3 + N;
  ++Segments;
  return Item::Segment;
}
