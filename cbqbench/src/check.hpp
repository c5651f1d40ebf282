#pragma once
// One problem through the public entry path that `cbq check` and
// `cbq batch` use, with library defaults and a per-problem time limit:
//
//   circuits::readCircuitFile -> prep::Pipeline::run
//     -> mc::Engine::start / Session::resume  (sequential engines)
//        or portfolio::PortfolioRunner::run  (time-sliced portfolio)
//     -> TraceLifter::lift -> prep::demoteUnreplayableCex
//
// Each stage runs inside a benchmark-side span (category `bench`), so a
// traced run can attribute time to the layers without touching the
// library.

#include <string>
#include <vector>

#include "mc/result.hpp"
#include "obs/metrics.hpp"
#include "portfolio/runner.hpp"
#include "workloads.hpp"

namespace cbqbench {

/// Wall seconds of the stages of one check. `prep` is the pipeline's own
/// time; the portfolio starts sessions and lifts inside
/// PortfolioRunner::run, so for it start and lift stay zero. Resume time
/// is read from the `bench/resume` spans of a traced run.
struct StageTimes {
  double read = 0.0, prep = 0.0, start = 0.0, lift = 0.0, referee = 0.0;
};

struct Outcome {
  cbq::mc::Verdict verdict = cbq::mc::Verdict::Unknown;
  double seconds = 0.0;  ///< time to verdict: file read to referee verdict
  StageTimes stages;
  int steps = 0;
  /// False when an UNSAFE verdict carries no trace or its trace does not
  /// replay on the original network (checked apart from the timed path).
  bool traceReplays = true;
  std::string error;  ///< an exception escaped the entry path
  std::uintmax_t fileBytes = 0;

  /// Counters of every engine session that ran (portfolio: all engines).
  cbq::obs::Metrics engineStats;
  /// The prep pipeline's registry: `prep.<pass>.seconds` histograms hold
  /// every pass that ran, whether or not it changed the network.
  cbq::obs::Metrics prepStats;
  std::size_t andsBefore = 0, andsAfter = 0;
  bool decidedByPrep = false;
  std::vector<cbq::portfolio::EngineRun> runs;  ///< portfolio only

  [[nodiscard]] bool solved() const {
    return verdict != cbq::mc::Verdict::Unknown;
  }
};

/// Checks the circuit in `path` as `problem` says (its engine, or the
/// portfolio), under `timeLimitSeconds` for prep plus engines.
Outcome checkProblem(const Problem& problem, const std::string& path,
                     double timeLimitSeconds);

/// Seconds to start (Engine::start) one session of every default
/// portfolio engine on the prepared circuit in `path`; 0 when prep
/// decides it. The time-sliced portfolio starts sessions inside its
/// slices, where they cannot be timed apart from the first resume.
double portfolioStartSeconds(const std::string& path);

}  // namespace cbqbench
