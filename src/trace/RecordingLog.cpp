//===- trace/RecordingLog.cpp - The on-disk recording ---------------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "trace/RecordingLog.h"

#include "obs/Metrics.h"
#include "support/BinaryIO.h"
#include "support/DurableLog.h"
#include "trace/SegmentCodec.h"
#include "trace/SegmentReader.h"

using namespace light;

namespace {

constexpr uint64_t LogMagic = 0x4c49474854303031ull; // "LIGHT001"

std::vector<std::pair<ThreadId, Counter>>
counterUpdates(const std::vector<Counter> &FinalCounters) {
  std::vector<std::pair<ThreadId, Counter>> Updates;
  for (size_t T = 0; T < FinalCounters.size(); ++T)
    Updates.emplace_back(static_cast<ThreadId>(T), FinalCounters[T]);
  return Updates;
}

} // namespace

RecordingLog::SpaceBreakdown RecordingLog::spaceBreakdown() const {
  SpaceBreakdown B;
  B.SpanWords = 1 + Spans.size() * 4;
  B.SyscallWords = 1 + Syscalls.size() * 2;
  B.SpawnWords = 1 + Spawns.size();
  B.CounterWords = 1 + FinalCounters.size();
  B.GuardWords = 3 + Guards.Exact.size() + Guards.FieldIndices.size() +
                 Guards.GlobalIds.size();
  return B;
}

uint64_t RecordingLog::saveCompact(const std::string &Path) const {
  // Encode first: an overflowing record must not leave a header-only file
  // that load() would salvage as an empty recording.
  CompressedSegmentEncoder Enc;
  if (!Enc.addSpans(Spans.data(), Spans.size()) ||
      !Enc.addSyscalls(Syscalls.data(), Syscalls.size()) ||
      !Enc.addSpawns(Spawns) ||
      !Enc.addCounters(counterUpdates(FinalCounters)) ||
      !Enc.addGuards(Guards))
    return 0;
  DurableLogWriter Writer(Path);
  if (!Writer.writeSegment(Enc.finish()) || !Writer.closeClean())
    return 0;
  return Writer.wordsWritten();
}

//===----------------------------------------------------------------------===//
// Loading
//===----------------------------------------------------------------------===//

namespace {

uint64_t peekMagic(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return 0;
  uint64_t Word = 0;
  size_t Got = std::fread(&Word, sizeof(Word), 1, File);
  std::fclose(File);
  return Got == 1 ? Word : 0;
}

} // namespace

bool RecordingLog::load(const std::string &Path) {
  LogLoadReport Report;
  return load(Path, Report);
}

bool RecordingLog::load(const std::string &Path, LogLoadReport &Report) {
  Report = LogLoadReport();
  uint64_t Magic = peekMagic(Path);

  if (Magic == DurableFileMagic || Magic == CompressedFileMagic) {
    // Both durable formats stream segment by segment: the decode buffer is
    // bounded by one segment (plus the salvage-truncate holdback window),
    // never the file. Salvage, truncate-fault, and undecodable-segment
    // semantics all live in the reader.
    TraceSegmentReader Reader(Path);
    if (!Reader.ok()) {
      Report = Reader.report();
      return false;
    }
    Spans.clear();
    Syscalls.clear();
    Spawns.clear();
    FinalCounters.clear();
    Guards = GuardSpec();
    while (Reader.next(*this)) {
    }
    Reader.finish(*this);
    Report = Reader.report();
    return true;
  }

  Report.FormatVersion = 1;
  LongReader Reader(Path);
  if (!Reader.ok() || Reader.size() < 2 || Reader.get() != LogMagic) {
    Report.Error =
        "'" + Path + "' is not a readable LIGHT001/LIGHT002/LIGHT003 log";
    return false;
  }

  auto HasWords = [&](uint64_t N) {
    return N <= Reader.size(); // conservative sanity bound
  };
  auto Truncated = [&] {
    Report.Error = "'" + Path + "' is a truncated or corrupt LIGHT001 log";
    return false;
  };

  uint64_t NumSpans = Reader.get();
  if (!HasWords(NumSpans))
    return Truncated();
  Spans.clear();
  Spans.reserve(NumSpans);
  for (uint64_t I = 0; I < NumSpans; ++I) {
    if (Reader.atEnd())
      return Truncated();
    DepSpan S;
    S.Loc = Reader.get();
    uint64_t Src = Reader.get();
    if (Src)
      S.Src = AccessId::unpack(Src);
    uint64_t FirstWord = Reader.get();
    S.Kind = static_cast<SpanKind>(FirstWord >> 62);
    AccessId First = AccessId::unpack(FirstWord & ~(3ull << 62));
    S.Thread = First.Thread;
    S.First = First.Count;
    S.Last = Reader.get();
    // Unchecksummed format: a flipped bit can land anywhere, so validate
    // the span invariant (First <= Last < 2^48, the AccessId counter
    // width) before anything downstream packs these back into ids.
    if (S.Last >= (1ull << 48) || S.First > S.Last)
      return Truncated();
    Spans.push_back(S);
  }

  uint64_t NumSyscalls = Reader.get();
  if (!HasWords(NumSyscalls))
    return Truncated();
  Syscalls.clear();
  for (uint64_t I = 0; I < NumSyscalls; ++I) {
    SyscallRecord R;
    R.Thread = static_cast<ThreadId>(Reader.get());
    R.Value = Reader.get();
    Syscalls.push_back(R);
  }

  uint64_t NumSpawns = Reader.get();
  if (!HasWords(NumSpawns))
    return Truncated();
  Spawns.clear();
  for (uint64_t I = 0; I < NumSpawns; ++I)
    Spawns.push_back(unpackSpawnWord(Reader.get()));

  uint64_t NumCounters = Reader.get();
  if (!HasWords(NumCounters))
    return Truncated();
  FinalCounters.clear();
  for (uint64_t I = 0; I < NumCounters; ++I)
    FinalCounters.push_back(Reader.get());

  uint64_t NumExact = Reader.get();
  if (!HasWords(NumExact))
    return Truncated();
  Guards.Exact.clear();
  for (uint64_t I = 0; I < NumExact; ++I)
    Guards.Exact.push_back(Reader.get());
  uint64_t NumFields = Reader.get();
  if (!HasWords(NumFields))
    return Truncated();
  Guards.FieldIndices.clear();
  for (uint64_t I = 0; I < NumFields; ++I)
    Guards.FieldIndices.push_back(static_cast<uint32_t>(Reader.get()));
  uint64_t NumGlobals = Reader.get();
  if (!HasWords(NumGlobals))
    return Truncated();
  Guards.GlobalIds.clear();
  for (uint64_t I = 0; I < NumGlobals; ++I)
    Guards.GlobalIds.push_back(Reader.get());
  Guards.seal();

  if (!Reader.atEnd() || Reader.overran())
    return Truncated();
  return true;
}

std::string DepSpan::str() const {
  std::string Out = loc::str(Loc) + ": ";
  switch (Kind) {
  case SpanKind::Read:
    Out += Src.str() + " -> " + first().str();
    break;
  case SpanKind::Own:
    Out += "own " + first().str();
    break;
  case SpanKind::Init:
    Out += "init -> " + first().str();
    break;
  }
  if (Last != First)
    Out += " .. " + std::to_string(Last);
  return Out;
}

std::string RecordingLog::str() const {
  std::string Out;
  Out += "spans: " + std::to_string(Spans.size()) + "\n";
  for (const DepSpan &S : Spans)
    Out += "  " + S.str() + "\n";
  Out += "syscalls: " + std::to_string(Syscalls.size()) + "\n";
  Out += "spawns: " + std::to_string(Spawns.size()) + "\n";
  return Out;
}

SalvageOutcome light::salvageRecording(const std::string &Path) {
  SalvageOutcome Out;
  if (!Out.Log.load(Path, Out.Report)) {
    Out.Error = Out.Report.Error.empty()
                    ? "cannot load recording '" + Path + "'"
                    : Out.Report.Error;
    return Out;
  }
  Out.Loaded = true;
  // "Usable" is deliberately weak: any recovered dependence data — or even
  // an intact empty recording (clean close, zero spans) — counts. The CI
  // verdict rules only need to know "did the child leave *anything* the
  // replay side can consume", not "is it complete".
  Out.UsablePrefix = Out.Report.CleanClose ||
                     Out.Report.SegmentsRecovered > 0 ||
                     !Out.Log.Spans.empty() || !Out.Log.Spawns.empty();
  obs::Registry::global().counter("ci.salvage.loads").add(1);
  if (Out.Report.Salvaged)
    obs::Registry::global().counter("ci.salvage.torn").add(1);
  return Out;
}
