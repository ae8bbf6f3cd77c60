//===- support/Affinity.h - Pin a run to one CPU ----------------*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A scoped CPU-affinity guard for the space measurements. Light's recorded
/// volume is a property of how finely the recorded threads interleave: on
/// an idle multicore host the workers run in parallel and hand locations
/// back and forth, time-sliced on one CPU they run in long uninterleaved
/// bursts. Pinning the workers to one CPU makes the Figure 5 / Figure 7b
/// space columns come from one deterministic regime on every host; time
/// measurements stay unpinned.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_SUPPORT_AFFINITY_H
#define LIGHT_SUPPORT_AFFINITY_H

#include <sched.h>

namespace light {

/// Restricts the calling thread, and every thread it spawns meanwhile, to
/// one CPU (the first in its current mask) for the guard's lifetime, so the
/// workers time-slice instead of running in parallel. The previous mask is
/// restored on destruction. ok() is false when the mask could not be set.
class OneCpu {
public:
  OneCpu();
  ~OneCpu();

  OneCpu(const OneCpu &) = delete;
  OneCpu &operator=(const OneCpu &) = delete;

  bool ok() const { return Ok; }

private:
  cpu_set_t Saved;
  bool Ok = false;
};

} // namespace light

#endif // LIGHT_SUPPORT_AFFINITY_H
