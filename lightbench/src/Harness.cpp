//===- lightbench/src/Harness.cpp - Benchmark harness plumbing ------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <string>
#include <sys/resource.h>

namespace lb {

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += X;
  return S / static_cast<double>(V.size());
}

void resetPeakRss() {
  ::malloc_trim(0); // hand freed heap back first, or it stays resident
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // reported in kB
  struct rusage Ru = {};
  ::getrusage(RUSAGE_SELF, &Ru);
  return static_cast<double>(Ru.ru_maxrss) / 1024.0;
}

SpanLog &SpanLog::get() {
  static SpanLog Log;
  return Log;
}

static uint64_t nanosSince(Clock::time_point Epoch) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Epoch)
          .count());
}

int32_t SpanLog::open(const char *Name) {
  Rec R;
  R.Name = Name;
  R.StartNs = nanosSince(Epoch);
  R.Parent = Stack.empty() ? -1 : Stack.back();
  Spans.push_back(std::move(R));
  int32_t Id = static_cast<int32_t>(Spans.size() - 1);
  Stack.push_back(Id);
  return Id;
}

void SpanLog::close(int32_t Id) {
  Spans[Id].EndNs = nanosSince(Epoch);
  if (!Stack.empty() && Stack.back() == Id)
    Stack.pop_back();
}

bool SpanLog::write(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  Out << "{\"traceEvents\":[";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Rec &R = Spans[I];
    Out << (I ? ",\n" : "\n") << "{\"name\":\"" << R.Name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << R.StartNs / 1000.0
        << ",\"dur\":" << (R.EndNs - R.StartNs) / 1000.0
        << ",\"args\":{\"id\":" << I << ",\"parent\":" << R.Parent << "}}";
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

Span::Span(const char *Name) : T0(Clock::now()) {
  if (SpanLog::get().on())
    Id = SpanLog::get().open(Name);
}

double Span::stop() {
  if (Stopped)
    return Secs;
  Stopped = true;
  Secs = secondsSince(T0);
  if (Id >= 0)
    SpanLog::get().close(Id);
  return Secs;
}

bool Checks::expect(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    std::fprintf(stderr, "lightbench: check failed: %s\n", What.c_str());
  }
  return Ok;
}

Workload::~Workload() = default;

} // namespace lb
