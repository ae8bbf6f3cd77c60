//===- baselines/LeapRecorder.h - The Leap baseline -------------*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Re-implementation of Leap [Huang et al., FSE 2010], the representative
/// shared-access record-based baseline of the paper's evaluation
/// (Sections 2.2, 5.2): for every shared location, a globally ordered
/// access vector is maintained under synchronization, recording the
/// happens-before order of *all* accesses (reads and writes alike — i.e.
/// flow, anti, and output dependences). The per-access cost is a shard
/// lock, a map lookup, and a vector append ("the data recording is
/// expensive, e.g., it manipulates or even resizes the complex data
/// structure"), which is exactly the overhead Light's thread-local scheme
/// avoids.
///
/// Space unit: one long integer per access (the packed thread/counter id
/// appended to the location's vector), matching the paper's accounting.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_BASELINES_LEAPRECORDER_H
#define LIGHT_BASELINES_LEAPRECORDER_H

#include "runtime/AccessHook.h"
#include "trace/DepSpan.h"

#include <atomic>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace light {

/// Leap's on-disk/in-memory recording: per-location access sequences.
struct LeapLog {
  /// Location -> packed AccessIds in global (synchronized) access order.
  std::unordered_map<LocationId, std::vector<uint64_t>> AccessVectors;
  std::vector<SyscallRecord> Syscalls;
  std::vector<SpawnRecord> Spawns;

  /// Long-integer units: one per recorded access.
  uint64_t spaceLongs() const {
    uint64_t Total = 0;
    for (const auto &[L, V] : AccessVectors)
      Total += V.size();
    return Total + Syscalls.size() * 2;
  }
};

/// The Leap recording hook.
class LeapRecorder : public AccessHook {
public:
  LeapRecorder();
  ~LeapRecorder() override;

  void onWrite(ThreadId T, LocationId L, LocMeta &M,
               FunctionRef<void()> Perform) override;
  void onRead(ThreadId T, LocationId L, LocMeta &M,
              FunctionRef<void()> Perform) override;
  void onRmw(ThreadId T, LocationId L, LocMeta &M,
             FunctionRef<void()> Perform) override;
  uint64_t onSyscall(ThreadId T, FunctionRef<uint64_t()> Compute) override;
  Counter counterOf(ThreadId T) const override;

  /// Merges the shards into a LeapLog (also serializes to \p DumpPath when
  /// non-empty, for timing parity with the other recorders).
  LeapLog finish(const std::string &DumpPath = std::string());

  uint64_t longIntegersRecorded() const;

  /// Sampled shard-lock try_lock misses (1-in-64 probe). LightRecorder's
  /// stripeContentions() counts every lock-bit miss, so scale this by 64
  /// before comparing the two.
  uint64_t lockContentions() const;

private:
  static constexpr uint32_t NumShards = 256;
  struct alignas(64) Shard {
    std::mutex M;
    std::unordered_map<LocationId, std::vector<uint64_t>> Vectors;
    uint64_t Count = 0;
    std::atomic<uint64_t> Contended{0}; ///< bumped outside M on probe miss
  };

  PerThreadCounters Counters;
  std::vector<Shard> Shards;
  std::mutex SyscallM;
  std::vector<SyscallRecord> Syscalls;

  Shard &shardFor(LocationId L) {
    return Shards[(loc::stripeKey(L) * 0x9e3779b1u >> 16) % NumShards];
  }

  void record(ThreadId T, LocationId L, FunctionRef<void()> Perform);
};

} // namespace light

#endif // LIGHT_BASELINES_LEAPRECORDER_H
