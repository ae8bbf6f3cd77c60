//===- baselines/LeapRecorder.cpp - The Leap baseline ----------------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "baselines/LeapRecorder.h"

#include "obs/Metrics.h"

#include "support/BinaryIO.h"

using namespace light;

LeapRecorder::LeapRecorder() : Shards(NumShards) {}

LeapRecorder::~LeapRecorder() = default;

Counter LeapRecorder::counterOf(ThreadId T) const { return Counters.get(T); }

void LeapRecorder::record(ThreadId T, LocationId L,
                          FunctionRef<void()> Perform) {
  Counter C = Counters.bump(T);
  Shard &S = shardFor(L);
  // Leap's critical section: the program access and the access-vector
  // append run under the location's lock so the recorded order reflects
  // the true access order (Section 2.2). Contention probe sampled 1-in-64
  // by the per-thread counter: an unconditional try_lock would slow the
  // very lock path it measures.
  std::unique_lock<std::mutex> Guard(S.M, std::defer_lock);
  if ((C & 63) == 0) {
    if (!Guard.try_lock()) {
      S.Contended.fetch_add(1, std::memory_order_relaxed);
      Guard.lock();
    }
  } else {
    Guard.lock();
  }
  Perform();
  S.Vectors[L].push_back(AccessId(T, C).pack());
  ++S.Count;
}

void LeapRecorder::onWrite(ThreadId T, LocationId L, LocMeta &M,
                           FunctionRef<void()> Perform) {
  record(T, L, Perform);
}

void LeapRecorder::onRead(ThreadId T, LocationId L, LocMeta &M,
                          FunctionRef<void()> Perform) {
  record(T, L, Perform);
}

void LeapRecorder::onRmw(ThreadId T, LocationId L, LocMeta &M,
                         FunctionRef<void()> Perform) {
  // Lock acquisitions must perform first (taking the program's mutex
  // inside our shard lock would invert the lock order against guarded
  // data accesses and deadlock). The region we just entered serializes
  // the append, so the recorded order still reflects the true order.
  Counter C = Counters.bump(T);
  Perform();
  Shard &S = shardFor(L);
  std::lock_guard<std::mutex> Guard(S.M);
  S.Vectors[L].push_back(AccessId(T, C).pack());
  ++S.Count;
}

uint64_t LeapRecorder::onSyscall(ThreadId T, FunctionRef<uint64_t()> Compute) {
  uint64_t Value = Compute();
  std::lock_guard<std::mutex> Guard(SyscallM);
  Syscalls.push_back({T, Value});
  return Value;
}

LeapLog LeapRecorder::finish(const std::string &DumpPath) {
  LeapLog Log;
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Guard(S.M);
    for (auto &[L, V] : S.Vectors)
      Log.AccessVectors[L] = V;
  }
  Log.Syscalls = Syscalls;
  if (!DumpPath.empty()) {
    LongWriter Writer(DumpPath);
    for (const auto &[L, V] : Log.AccessVectors) {
      Writer.put(L);
      Writer.put(V.size());
      for (uint64_t A : V)
        Writer.put(A);
    }
    Writer.finish();
  }
  obs::Registry &Reg = obs::Registry::global();
  Reg.counter("baseline.leap.access_vectors").add(Log.AccessVectors.size());
  Reg.counter("baseline.leap.long_integers").add(longIntegersRecorded());
  Reg.counter("baseline.leap.lock_contention").add(lockContentions());
  return Log;
}

uint64_t LeapRecorder::longIntegersRecorded() const {
  uint64_t Total = 0;
  for (const Shard &S : Shards)
    Total += S.Count;
  return Total + Syscalls.size() * 2;
}

uint64_t LeapRecorder::lockContentions() const {
  uint64_t Total = 0;
  for (const Shard &S : Shards)
    Total += S.Contended.load(std::memory_order_relaxed);
  return Total;
}
