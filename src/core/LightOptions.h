//===- core/LightOptions.h - Recorder configuration --------------*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of the Light recorder, including the two optimizations the
/// evaluation ablates in Section 5.4: O1 (uninterleaved-sequence spans,
/// Lemma 4.3) and O2 (lock-order subsumption of consistently guarded
/// locations, Lemma 4.2). The three versions measured in Figure 7 are:
///
///   V_basic: EnableO1 = false, EnableO2 = false
///   V_O1:    EnableO1 = true,  EnableO2 = false
///   V_both:  EnableO1 = true,  EnableO2 = true
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_CORE_LIGHTOPTIONS_H
#define LIGHT_CORE_LIGHTOPTIONS_H

#include <cstddef>
#include <string>

namespace light {

/// Tuning knobs for LightRecorder.
struct LightOptions {
  /// Optimization O1 (Lemma 4.3): compress uninterleaved same-thread access
  /// sequences into [start, end] spans instead of per-dependence records.
  bool EnableO1 = true;

  /// Optimization O2 (Lemma 4.2): skip field-level recording for locations
  /// that the guard analysis proved consistently lock-protected; the
  /// recorded lock operation order subsumes their dependences.
  bool EnableO2 = true;

  /// Epoch durability (crash tolerance): when nonzero, the recorder streams
  /// every completed epoch into a LIGHT003 durable log (see
  /// support/DurableLog.h) as a checksummed segment, flushed to the OS at
  /// the epoch boundary — a crashed or SIGKILL'd process leaves a
  /// salvageable prefix covering all closed epochs. An epoch falls due once
  /// this many records (spans + syscalls) are pending in a thread, and
  /// closes at the thread's first lock-free point after that: a thread
  /// holding a program lock (counted from the ghost lock accesses) defers
  /// the flush to its next access outside every lock, or to its end, unless
  /// 4x the threshold piles up first. 0 disables the count trigger. Epoch
  /// durability is on when either EpochSpans or EpochMs is set, and the
  /// machinery stays off the per-access hot path either way.
  size_t EpochSpans = 0;

  /// Also let an epoch fall due once this many milliseconds have passed
  /// since the thread's last durable flush (checked when spans close, so an
  /// idle thread writes nothing); it closes at the next lock-free point,
  /// as above (deferred at most 4x this long). 0 disables the time trigger.
  uint64_t EpochMs = 0;

  /// Target file for the durable epoch log; empty selects a temp path.
  /// Only consulted when EpochSpans or EpochMs is set.
  std::string DurableLogPath;

  /// No effect; kept only because lightbench/ assigns it. Delete with that.
  bool CompressedEpochs = true;

  /// No effect; kept only because lightbench/ assigns it. Delete with that.
  bool WriteToDisk = false;

  /// Named presets matching the paper's ablation (Section 5.4).
  static LightOptions basic() {
    LightOptions O;
    O.EnableO1 = false;
    O.EnableO2 = false;
    return O;
  }
  static LightOptions o1Only() {
    LightOptions O;
    O.EnableO1 = true;
    O.EnableO2 = false;
    return O;
  }
  static LightOptions both() { return LightOptions(); }
};

} // namespace light

#endif // LIGHT_CORE_LIGHTOPTIONS_H
