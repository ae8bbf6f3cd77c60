//===- support/Affinity.cpp - Pin a run to one CPU ------------------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "support/Affinity.h"

using namespace light;

OneCpu::OneCpu() {
  if (sched_getaffinity(0, sizeof(Saved), &Saved) != 0)
    return;
  cpu_set_t One;
  CPU_ZERO(&One);
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Saved)) {
      CPU_SET(C, &One);
      break;
    }
  Ok = sched_setaffinity(0, sizeof(One), &One) == 0;
}

OneCpu::~OneCpu() {
  if (Ok)
    sched_setaffinity(0, sizeof(Saved), &Saved);
}
