//===- explore/CrossEngineOracle.h - Differential replay oracle -*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-engine differential oracle: for one (program, schedule) pair,
/// record the same execution with Light and the four baselines (Leap,
/// Stride, Clap, Chimera), run every engine's offline phase and replay,
/// and assert agreement — in the iReplayer tradition of validating a
/// replay engine by repeated identical re-execution against itself and its
/// baselines. The agreement definition:
///
///  * recording fidelity — every pass-through recorder observes exactly
///    the reference run (same per-thread print sequences, same bug);
///  * replay fidelity — each engine's replay reproduces its own recording
///    (prints + Theorem 1 bug correlation); Light replays validated;
///  * read-from agreement — Light's V_basic dependence spans and Stride's
///    reconstructed bounded linkage name the same source write for every
///    shared read they both cover;
///  * documented limitations are *not* disagreements: Clap may report the
///    program outside its solver model (maps, arrays, wait/notify,
///    nonlinear arithmetic), and its replay promises only the recorded
///    branch outcomes and the failure — value flow that never feeds a
///    branch may differ, so Clap is held to bug correlation, not prints.
///    Chimera records a *patched* program whose serialized methods may
///    legitimately hide the bug; it is held to self-fidelity (its replay
///    must reproduce its own recording).
///
/// Any disagreement is a finding: either a real divergence between two
/// replay engines or a broken invariant in one of them. The shrinker
/// (ProgramShrinker.h) minimizes the (program, schedule) pair while the
/// disagreement persists.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_EXPLORE_CROSSENGINEORACLE_H
#define LIGHT_EXPLORE_CROSSENGINEORACLE_H

#include "explore/DecisionTrace.h"
#include "interp/Machine.h"
#include "smt/Z3Backend.h"

#include <string>
#include <vector>

namespace light {
namespace explore {

/// One detected disagreement between two engines (or an engine and the
/// reference run, named "recorded").
struct Disagreement {
  std::string EngineA;
  std::string EngineB;
  std::string Aspect; ///< "prints" | "bug" | "read-from" | "replay" | "solve"
  std::string Detail;

  std::string str() const {
    return EngineA + " vs " + EngineB + " [" + Aspect + "]: " + Detail;
  }
};

/// The oracle's verdict for one (program, schedule) pair.
struct OracleVerdict {
  bool Agreed = true;
  std::vector<Disagreement> Disagreements;

  /// Reference-run facts and documented limitations (not disagreements).
  bool BugManifested = false;
  BugReport Bug;
  bool ClapSupported = false;
  std::string ClapNote;
  bool ChimeraRan = false;
  bool ChimeraBugManifested = false;
  uint32_t ReadFromChecked = 0; ///< read-from edges compared Light vs Stride

  std::string str() const;
};

/// Oracle configuration.
struct OracleConfig {
  smt::SolverEngine LightEngine = smt::SolverEngine::Idl;
  /// Clap's offline phase symbolically re-executes through Z3; allow
  /// disabling it for high-volume property runs.
  bool RunClap = true;
  /// Chimera records the patched program under its own schedule search.
  bool RunChimera = true;
  uint64_t ChimeraMaxSeeds = 12;
  uint64_t EnvSeed = 1;
  uint64_t MaxInstructions = 20000000ull;
};

/// The differential oracle. Stateless apart from its configuration; check
/// may be called for many pairs.
class CrossEngineOracle {
public:
  explicit CrossEngineOracle(OracleConfig Config = OracleConfig())
      : Config(Config) {}

  /// Checks one (program, schedule) pair. \p Schedule may be a prefix; the
  /// non-preemptive default policy extends it deterministically.
  OracleVerdict check(const mir::Program &Prog,
                      const DecisionTrace &Schedule) const;

  const OracleConfig &config() const { return Config; }

private:
  OracleConfig Config;
};

} // namespace explore
} // namespace light

#endif // LIGHT_EXPLORE_CROSSENGINEORACLE_H
