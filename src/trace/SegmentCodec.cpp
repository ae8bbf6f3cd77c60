//===- trace/SegmentCodec.cpp - Segment payload encodings -----------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "trace/SegmentCodec.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <cstring>

using namespace light;

SpawnRecord light::unpackSpawnWord(uint64_t W) {
  SpawnRecord R;
  R.Parent = static_cast<ThreadId>(W >> 48);
  R.SpawnIndex = static_cast<uint32_t>((W >> 16) & 0xffffffff);
  R.Child = static_cast<ThreadId>(W & 0xffff);
  return R;
}

//===----------------------------------------------------------------------===//
// LIGHT002 word-oriented payload decoding (legacy, read only)
//===----------------------------------------------------------------------===//

bool light::decodeSegmentWords(const std::vector<uint64_t> &P,
                               RecordingLog &Log) {
  size_t Pos = 0;
  while (Pos < P.size()) {
    if (P.size() - Pos < 2)
      return false;
    uint64_t Tag = P[Pos];
    uint64_t N = P[Pos + 1];
    Pos += 2;
    uint64_t Remaining = P.size() - Pos;
    switch (static_cast<LogSection>(Tag)) {
    case LogSection::Spans: {
      if (N > Remaining / 4)
        return false;
      for (uint64_t I = 0; I < N; ++I, Pos += 4) {
        DepSpan S;
        S.Loc = P[Pos];
        if (P[Pos + 1])
          S.Src = AccessId::unpack(P[Pos + 1]);
        uint64_t FirstWord = P[Pos + 2];
        S.Kind = static_cast<SpanKind>(FirstWord >> 62);
        AccessId First = AccessId::unpack(FirstWord & ~(3ull << 62));
        S.Thread = First.Thread;
        S.First = First.Count;
        S.Last = P[Pos + 3];
        // Well-formed spans satisfy First <= Last < 2^48 (the AccessId
        // counter width); anything else is producer corruption.
        if (S.Last > MaxAccessCounter || S.First > S.Last)
          return false;
        Log.Spans.push_back(S);
      }
      break;
    }
    case LogSection::Syscalls: {
      if (N > Remaining / 2)
        return false;
      for (uint64_t I = 0; I < N; ++I, Pos += 2) {
        SyscallRecord R;
        R.Thread = static_cast<ThreadId>(P[Pos]);
        R.Value = P[Pos + 1];
        Log.Syscalls.push_back(R);
      }
      break;
    }
    case LogSection::Spawns: {
      if (N > Remaining)
        return false;
      Log.Spawns.clear();
      for (uint64_t I = 0; I < N; ++I, ++Pos)
        Log.Spawns.push_back(unpackSpawnWord(P[Pos]));
      break;
    }
    case LogSection::Counters: {
      if (N > Remaining / 2)
        return false;
      for (uint64_t I = 0; I < N; ++I, Pos += 2) {
        size_t T = P[Pos];
        if (T > MaxSpanThread)
          return false;
        if (Log.FinalCounters.size() <= T)
          Log.FinalCounters.resize(T + 1, 0);
        Log.FinalCounters[T] = std::max(Log.FinalCounters[T], P[Pos + 1]);
      }
      break;
    }
    case LogSection::GuardExact: {
      if (N > Remaining)
        return false;
      Log.Guards.Exact.assign(P.begin() + Pos, P.begin() + Pos + N);
      Pos += N;
      break;
    }
    case LogSection::GuardFields: {
      if (N > Remaining)
        return false;
      Log.Guards.FieldIndices.clear();
      for (uint64_t I = 0; I < N; ++I, ++Pos)
        Log.Guards.FieldIndices.push_back(static_cast<uint32_t>(P[Pos]));
      break;
    }
    case LogSection::GuardGlobals: {
      if (N > Remaining)
        return false;
      Log.Guards.GlobalIds.assign(P.begin() + Pos, P.begin() + Pos + N);
      Pos += N;
      break;
    }
    default:
      return false; // unknown section tag
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// LIGHT003 varint stream
//===----------------------------------------------------------------------===//

void v3::putVarint(std::vector<uint8_t> &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<uint8_t>(V) | 0x80);
    V >>= 7;
  }
  Out.push_back(static_cast<uint8_t>(V));
}

void v3::putZigzag(std::vector<uint8_t> &Out, int64_t V) {
  putVarint(Out, (static_cast<uint64_t>(V) << 1) ^
                     static_cast<uint64_t>(V >> 63));
}

namespace {

/// Bounds-checked reader over a LIGHT003 byte stream. Every decode failure
/// (varint past the end, over-long varint) latches Fail; callers test it at
/// record granularity, never dereference past End.
struct ByteCursor {
  const uint8_t *P;
  const uint8_t *End;
  bool Fail = false;

  bool atEnd() const { return P == End; }

  uint8_t byte() {
    if (P == End) {
      Fail = true;
      return 0;
    }
    return *P++;
  }

  uint64_t varint() {
    uint64_t V = 0;
    for (unsigned Shift = 0; Shift < 64; Shift += 7) {
      if (P == End) {
        Fail = true;
        return 0;
      }
      uint8_t B = *P++;
      V |= static_cast<uint64_t>(B & 0x7f) << Shift;
      if (!(B & 0x80))
        return V;
    }
    Fail = true; // over-long varint
    return 0;
  }

  int64_t zigzag() {
    uint64_t V = varint();
    return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
  }
};

obs::Counter overflowCounter() {
  return obs::Registry::global().counter("record.overflow");
}

/// Raw-pointer LEB128 writers for the span fast path; the caller has sized
/// the buffer for the worst case, so there is no per-byte capacity check.
inline uint8_t *rawVarint(uint8_t *P, uint64_t V) {
  while (V >= 0x80) {
    *P++ = static_cast<uint8_t>(V) | 0x80;
    V >>= 7;
  }
  *P++ = static_cast<uint8_t>(V);
  return P;
}

inline uint8_t *rawZigzag(uint8_t *P, int64_t V) {
  return rawVarint(P, (static_cast<uint64_t>(V) << 1) ^
                          static_cast<uint64_t>(V >> 63));
}

/// Worst-case encoded sizes: a 64-bit varint takes 10 bytes, a 16-bit
/// thread id 3. A span is a flags byte, two thread ids (owner and src) and
/// four 64-bit fields (loc, first, length, src count).
constexpr size_t MaxVarintBytes = 10;
constexpr size_t MaxSpanBytes = 1 + 2 * 3 + 4 * MaxVarintBytes;

} // namespace

bool CompressedSegmentEncoder::overflow() {
  overflowCounter().add(1);
  Overflowed = true;
  return false;
}

bool CompressedSegmentEncoder::addSpans(const DepSpan *Spans, size_t N) {
  if (!N)
    return true;
  ThreadId MaxThread = 0;
  for (size_t I = 0; I < N; ++I) {
    if (!spanEncodable(Spans[I]))
      return overflow();
    MaxThread = std::max(MaxThread, Spans[I].Thread);
  }
  size_t Start = Bytes.size();
  Bytes.resize(Start + 2 * MaxVarintBytes + N * MaxSpanBytes);
  uint8_t *P = Bytes.data() + Start;
  P = rawVarint(P, static_cast<uint64_t>(LogSection::Spans));
  P = rawVarint(P, N);
  uint64_t PrevLoc = 0;
  // Per-thread delta bases, indexed directly: span threads are bounded by
  // MaxSpanThread and a section usually holds one or a few threads.
  std::vector<Counter> PrevFirst(static_cast<size_t>(MaxThread) + 1, 0);
  for (size_t I = 0; I < N; ++I) {
    const DepSpan &S = Spans[I];
    *P++ = static_cast<uint8_t>(S.Kind) | (S.Src.valid() ? 0x4 : 0x0);
    // Deltas use wrapping two's-complement arithmetic, so any 64-bit pair
    // round-trips; zigzag just keeps the common near-zero deltas short.
    P = rawZigzag(P, static_cast<int64_t>(S.Loc - PrevLoc));
    P = rawVarint(P, S.Thread);
    Counter &PF = PrevFirst[S.Thread];
    P = rawZigzag(P, static_cast<int64_t>(S.First - PF));
    P = rawVarint(P, S.Last - S.First);
    if (S.Src.valid()) {
      P = rawVarint(P, S.Src.Thread);
      P = rawZigzag(P, static_cast<int64_t>(S.Src.Count - S.First));
    }
    PrevLoc = S.Loc;
    PF = S.First;
  }
  Bytes.resize(static_cast<size_t>(P - Bytes.data()));
  return true;
}

bool CompressedSegmentEncoder::addSyscalls(const SyscallRecord *Calls,
                                           size_t N) {
  if (!N)
    return true;
  v3::putVarint(Bytes, static_cast<uint64_t>(LogSection::Syscalls));
  v3::putVarint(Bytes, N);
  for (size_t I = 0; I < N; ++I) {
    v3::putVarint(Bytes, Calls[I].Thread);
    v3::putVarint(Bytes, Calls[I].Value);
  }
  return true;
}

bool CompressedSegmentEncoder::addSpawns(
    const std::vector<SpawnRecord> &Spawns) {
  v3::putVarint(Bytes, static_cast<uint64_t>(LogSection::Spawns));
  v3::putVarint(Bytes, Spawns.size());
  for (const SpawnRecord &R : Spawns) {
    v3::putVarint(Bytes, R.Parent);
    v3::putVarint(Bytes, R.SpawnIndex);
    v3::putVarint(Bytes, R.Child);
  }
  return true;
}

bool CompressedSegmentEncoder::addCounters(
    const std::vector<std::pair<ThreadId, Counter>> &Updates) {
  if (Updates.empty())
    return true;
  for (const auto &[Thread, Count] : Updates)
    if (Thread > MaxSpanThread || Count > MaxAccessCounter)
      return overflow();
  v3::putVarint(Bytes, static_cast<uint64_t>(LogSection::Counters));
  v3::putVarint(Bytes, Updates.size());
  for (const auto &[Thread, Count] : Updates) {
    v3::putVarint(Bytes, Thread);
    v3::putVarint(Bytes, Count);
  }
  return true;
}

bool CompressedSegmentEncoder::addGuards(const GuardSpec &Guards) {
  v3::putVarint(Bytes, static_cast<uint64_t>(LogSection::GuardExact));
  v3::putVarint(Bytes, Guards.Exact.size());
  uint64_t Prev = 0;
  for (LocationId L : Guards.Exact) {
    v3::putZigzag(Bytes, static_cast<int64_t>(L - Prev));
    Prev = L;
  }
  v3::putVarint(Bytes, static_cast<uint64_t>(LogSection::GuardFields));
  v3::putVarint(Bytes, Guards.FieldIndices.size());
  for (uint32_t F : Guards.FieldIndices)
    v3::putVarint(Bytes, F);
  v3::putVarint(Bytes, static_cast<uint64_t>(LogSection::GuardGlobals));
  v3::putVarint(Bytes, Guards.GlobalIds.size());
  for (uint64_t G : Guards.GlobalIds)
    v3::putVarint(Bytes, G);
  return true;
}

std::vector<uint64_t> CompressedSegmentEncoder::finish() const {
  std::vector<uint64_t> Out(1 + (Bytes.size() + 7) / 8, 0);
  Out[0] = Bytes.size();
  if (!Bytes.empty())
    std::memcpy(Out.data() + 1, Bytes.data(), Bytes.size());
  return Out;
}

bool light::decodeSegmentCompressed(const std::vector<uint64_t> &P,
                                    RecordingLog &Log) {
  if (P.empty())
    return true;
  uint64_t ByteLen = P[0];
  // The padding must account exactly for the declared byte length; anything
  // else means the frame and the stream disagree.
  if (P.size() != 1 + (ByteLen + 7) / 8)
    return false;
  const uint8_t *Base = reinterpret_cast<const uint8_t *>(P.data() + 1);
  ByteCursor C{Base, Base + ByteLen};

  while (!C.atEnd()) {
    uint64_t Tag = C.varint();
    uint64_t N = C.varint();
    if (C.Fail)
      return false;
    switch (static_cast<LogSection>(Tag)) {
    case LogSection::Spans: {
      uint64_t PrevLoc = 0;
      std::vector<Counter> PrevFirst; // indexed by thread, grown on demand
      for (uint64_t I = 0; I < N; ++I) {
        uint8_t Flags = C.byte();
        if (Flags & ~0x7u)
          return false;
        DepSpan S;
        if ((Flags & 0x3) > static_cast<uint8_t>(SpanKind::Init))
          return false;
        S.Kind = static_cast<SpanKind>(Flags & 0x3);
        S.Loc = PrevLoc + static_cast<uint64_t>(C.zigzag());
        uint64_t T = C.varint();
        if (T > MaxSpanThread)
          return false;
        S.Thread = static_cast<ThreadId>(T);
        if (T >= PrevFirst.size())
          PrevFirst.resize(T + 1, 0);
        Counter &PF = PrevFirst[S.Thread];
        S.First = PF + static_cast<uint64_t>(C.zigzag());
        S.Last = S.First + C.varint();
        if (Flags & 0x4) {
          uint64_t ST = C.varint();
          if (ST > 0xffff)
            return false;
          S.Src = AccessId(static_cast<ThreadId>(ST),
                           S.First + static_cast<uint64_t>(C.zigzag()));
        }
        if (C.Fail || !spanEncodable(S))
          return false;
        PrevLoc = S.Loc;
        PF = S.First;
        Log.Spans.push_back(S);
      }
      break;
    }
    case LogSection::Syscalls: {
      for (uint64_t I = 0; I < N; ++I) {
        SyscallRecord R;
        uint64_t T = C.varint();
        if (T > 0xffff)
          return false;
        R.Thread = static_cast<ThreadId>(T);
        R.Value = C.varint();
        if (C.Fail)
          return false;
        Log.Syscalls.push_back(R);
      }
      break;
    }
    case LogSection::Spawns: {
      Log.Spawns.clear();
      for (uint64_t I = 0; I < N; ++I) {
        SpawnRecord R;
        uint64_t Parent = C.varint();
        uint64_t Index = C.varint();
        uint64_t Child = C.varint();
        if (C.Fail || Parent > 0xffff || Index > 0xffffffffull ||
            Child > 0xffff)
          return false;
        R.Parent = static_cast<ThreadId>(Parent);
        R.SpawnIndex = static_cast<uint32_t>(Index);
        R.Child = static_cast<ThreadId>(Child);
        Log.Spawns.push_back(R);
      }
      break;
    }
    case LogSection::Counters: {
      for (uint64_t I = 0; I < N; ++I) {
        uint64_t T = C.varint();
        uint64_t Count = C.varint();
        if (C.Fail || T > MaxSpanThread || Count > MaxAccessCounter)
          return false;
        if (Log.FinalCounters.size() <= T)
          Log.FinalCounters.resize(T + 1, 0);
        Log.FinalCounters[T] = std::max(Log.FinalCounters[T], Count);
      }
      break;
    }
    case LogSection::GuardExact: {
      Log.Guards.Exact.clear();
      uint64_t Prev = 0;
      for (uint64_t I = 0; I < N; ++I) {
        Prev += static_cast<uint64_t>(C.zigzag());
        if (C.Fail)
          return false;
        Log.Guards.Exact.push_back(Prev);
      }
      break;
    }
    case LogSection::GuardFields: {
      Log.Guards.FieldIndices.clear();
      for (uint64_t I = 0; I < N; ++I) {
        uint64_t F = C.varint();
        if (C.Fail || F > 0xffffffffull)
          return false;
        Log.Guards.FieldIndices.push_back(static_cast<uint32_t>(F));
      }
      break;
    }
    case LogSection::GuardGlobals: {
      Log.Guards.GlobalIds.clear();
      for (uint64_t I = 0; I < N; ++I) {
        uint64_t G = C.varint();
        if (C.Fail)
          return false;
        Log.Guards.GlobalIds.push_back(G);
      }
      break;
    }
    default:
      return false; // unknown section tag
    }
  }
  return !C.Fail;
}
