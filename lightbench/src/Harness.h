//===- lightbench/src/Harness.h - Benchmark harness plumbing ----*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every workload of the whole-pipeline benchmark shares: the
/// command line, the timed sample loop, the correctness ledger, the result
/// line, and the span recorder that times each call the benchmark makes
/// into a layer's public functions.
///
/// Each workload is one class with three entry points: setup() builds the
/// inputs from the seed (timed several times; the median is setup_s),
/// iterate() runs one measured unit of work and returns its end-to-end
/// sample, and layerMetrics() reports what the traced iterations
/// collected. main() runs untraced iterations for the end-to-end
/// metrics; with --trace 1 it runs untraced and traced iterations back to
/// back and reports per-layer metrics plus the tracing overhead.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHTBENCH_HARNESS_H
#define LIGHTBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace lb {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since \p T0.
double secondsSince(Clock::time_point T0);

/// Median of \p V (0 when empty).
double median(std::vector<double> V);

/// Mean of \p V (0 when empty).
double mean(const std::vector<double> &V);

/// Returns freed heap to the system and restarts this process's peak-RSS
/// high-water mark at the resulting RSS (Linux /proc/self/clear_refs), so
/// peakRssMb() covers only what runs after the call.
void resetPeakRss();

/// This process's peak resident set in MB since the last resetPeakRss()
/// (VmHWM), or since start where the mark cannot be reset.
double peakRssMb();

/// Parsed command line.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Tiny inputs for the self-test: every workload finishes in well under
  /// a second per iteration. Never used for measurements.
  bool Tiny = false;
  /// Corrupt one artifact per iteration so the correctness checks must
  /// fail (the negative control of each workload).
  bool NegativeControl = false;
  /// Scratch directory for logs and spill files (created, then removed).
  std::string WorkDir;
  /// Where --trace 1 writes the recorded spans (Chrome trace JSON); empty
  /// keeps them in memory only.
  std::string SpansOut;
  /// Size override for the growth sweeps in README.md (0 = default).
  uint64_t Size = 0;
};

/// Records spans around calls into the program's layers. Off unless the
/// current iteration is traced; the timing itself is always taken, since
/// end-to-end samples need it too.
class SpanLog {
public:
  struct Rec {
    std::string Name;
    uint64_t StartNs = 0;
    uint64_t EndNs = 0;
    int32_t Parent = -1;
  };

  static SpanLog &get();

  bool on() const { return On; }
  void setOn(bool V) { On = V; }

  int32_t open(const char *Name);
  void close(int32_t Id);

  /// Writes every span as a Chrome trace ("X" events). Returns false on
  /// I/O failure.
  bool write(const std::string &Path) const;

private:
  bool On = false;
  Clock::time_point Epoch = Clock::now();
  std::vector<Rec> Spans;
  std::vector<int32_t> Stack;
};

/// Times one call into a layer: always measures, records a span when the
/// SpanLog is on. stop() ends it early and returns the seconds.
class Span {
public:
  explicit Span(const char *Name);
  ~Span() { stop(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  double stop();

private:
  Clock::time_point T0;
  int32_t Id = -1;
  bool Stopped = false;
  double Secs = 0;
};

/// The correctness ledger: every check the benchmark makes is one attempt.
class Checks {
public:
  /// Counts one check; logs \p What to stderr when it fails.
  bool expect(bool Ok, const std::string &What);
  /// Adds tallies kept elsewhere (a forked child's ledger).
  void add(uint64_t MoreAttempted, uint64_t MoreFailed) {
    Attempted += MoreAttempted;
    Failed += MoreFailed;
  }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// One reported metric.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  size_t Samples = 1;
};

/// How the items of a unit of work add up to its throughput and latency.
enum class Combine {
  Sum,    ///< the unit is all of its items: seconds and work add up
  Median, ///< the items are independent instances: report the median one
};

/// One measured unit of work. A unit is made of items — one recording,
/// 96 programs, 24 searches — that are the same, in the same order, in
/// every unit of a run, and each is timed on its own. main() keeps every
/// item's best time over the run's units and combines those (see
/// main.cpp for why).
struct Sample {
  std::vector<double> WorkSeconds;    ///< per throughput item: seconds
  std::vector<double> WorkDone;       ///< per throughput item: work items
  std::vector<double> LatencySeconds; ///< per latency item: seconds
  double PeakRssMb = 0;               ///< peak RSS while producing the unit
};

/// A workload of the benchmark.
class Workload {
public:
  virtual ~Workload();

  /// What one work item and one latency sample are, for the report.
  virtual const char *itemName() const = 0;
  virtual const char *latencyName() const = 0;

  /// How a unit's items combine.
  virtual Combine combine() const = 0;

  /// Builds the inputs from the seed; main() times several calls.
  virtual void setup() = 0;

  /// Runs one measured unit of work, checking its outputs in \p C.
  /// \p Traced iterations also collect the per-layer figures.
  virtual Sample iterate(Checks &C, bool Traced) = 0;

  /// Appends the per-layer metrics collected by traced iterations.
  virtual void layerMetrics(std::vector<Metric> &Out) = 0;
};

std::unique_ptr<Workload> makeRecordMt(const Options &O);
std::unique_ptr<Workload> makeReproduceDense(const Options &O);
std::unique_ptr<Workload> makeStreamScale(const Options &O);
std::unique_ptr<Workload> makeExploreSuite(const Options &O);

} // namespace lb

#endif // LIGHTBENCH_HARNESS_H
