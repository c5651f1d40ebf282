#pragma once
// Parallel engine portfolio — the paper's experimental observation turned
// into a runtime strategy.
//
// No single engine dominates: circuit quantification wins where BDDs blow
// up (multiplier cones), BDDs win on wide shallow control, BMC finds deep
// bugs that backward fixpoints crawl towards, induction proves what BMC
// never can. The PortfolioRunner races a configurable engine set on one
// problem, each engine on its own thread with its own Network clone; the
// first definitive verdict (Safe / replay-checked Unsafe) wins and the
// shared CancelToken tells every rival to stop.

#include <functional>
#include <string>
#include <vector>

#include "mc/engines.hpp"
#include "obs/progress.hpp"
#include "portfolio/budget.hpp"
#include "prep/pipeline.hpp"

namespace cbq::portfolio {

/// How the portfolio spends its cores on one problem.
enum class ScheduleMode : std::uint8_t {
  Race,   ///< thread-per-engine race; losers are cancelled (PR 2)
  Slice,  ///< cooperative time slicing over persistent engine sessions
};

struct PortfolioOptions {
  /// Engine names (mc::engineNames()); empty means defaultPortfolio().
  std::vector<std::string> engines;
  double timeLimitSeconds = 0.0;  ///< whole-problem wall budget (0 = none)
  std::size_t nodeLimit = 0;      ///< per-engine live-node bound (0 = none)
  /// Soft per-problem RSS ceiling in bytes (0 = none): when the process
  /// crosses it, every engine on the problem bails out to Unknown through
  /// the cooperative budget path instead of riding into the OOM killer
  /// (Budget::withRssLimit has the precise semantics).
  std::size_t rssLimitBytes = 0;

  /// Preprocessing pipeline (prep/pipeline.hpp), run ONCE per problem
  /// before any engine starts; every worker clones the reduced network.
  /// Unsafe verdicts are lifted back and refereed on the original.
  prep::PrepOptions prep{};

  /// Live telemetry sink (obs/progress.hpp): called at natural boundaries
  /// — prep done, slice finished, racing engine resolved, final verdict.
  /// May be invoked concurrently from several workers; null disables.
  obs::ProgressFn onProgress;

  ScheduleMode schedule = ScheduleMode::Race;
  // --- Slice mode only ---------------------------------------------------
  int sliceWorkers = 1;  ///< worker threads resuming sessions (<=0: one)
};

/// One engine's contribution to a portfolio run.
struct EngineRun {
  std::string engine;
  mc::Verdict verdict = mc::Verdict::Unknown;
  int steps = 0;
  double seconds = 0.0;   ///< the engine's own wall time
  bool winner = false;
  bool cancelled = false;  ///< lost the race (token fired before it finished)
  int slices = 0;          ///< resume() slices granted (slice mode; race: 1)
  /// The engine threw (any exception type) and was quarantined: removed
  /// from the race/rotation while the survivors kept running. Its verdict
  /// stays Unknown and `error` records what escaped.
  bool failed = false;
  std::string error;
  obs::Metrics stats;
};

/// What preprocessing did to one problem, for reports. `decided` marks
/// problems the pipeline settled without running any engine.
struct PrepSummary {
  bool enabled = false;
  bool decided = false;
  double seconds = 0.0;
  std::size_t latchesBefore = 0, latchesAfter = 0;
  std::size_t inputsBefore = 0, inputsAfter = 0;
  std::size_t andsBefore = 0, andsAfter = 0;
  std::vector<prep::PassStats> passes;
};

struct PortfolioResult {
  /// The winning engine's result; verdict Unknown (engine "portfolio")
  /// when nobody produced a definitive answer within the budget. For
  /// Unsafe verdicts `best.cex` is the LIFTED trace — it replays on the
  /// original (pre-preprocessing) network.
  mc::CheckResult best;
  std::vector<EngineRun> runs;  ///< one per engine, in engine-set order
  PrepSummary prep;             ///< preprocessing shrink record
  double wallSeconds = 0.0;
  /// Containment diagnostics: how many engines threw and were
  /// quarantined (== runs with failed set), and whether the soft RSS
  /// ceiling tripped during this problem. When every engine failed the
  /// verdict is Unknown and allEnginesFailed is the reason.
  int engineFailures = 0;
  bool allEnginesFailed = false;
  bool memLimitHit = false;

  [[nodiscard]] const EngineRun* winner() const {
    for (const EngineRun& r : runs)
      if (r.winner) return &r;
    return nullptr;
  }
};

/// The default racing set: the paper's engine, both classical baselines,
/// the bounded methods and the §4 hybrid — one representative per
/// complementary strength, cheap enough to run side by side.
std::vector<std::string> defaultPortfolio();

class PortfolioRunner {
 public:
  /// Throws std::invalid_argument when an engine name is unknown.
  explicit PortfolioRunner(PortfolioOptions opts = {});

  /// The engine entry path: preprocesses `net` once (prep pipeline, per
  /// opts.prep), then runs the engine set on the REDUCED problem under
  /// the configured schedule — Race fans one thread per engine, Slice
  /// hands the problem to the cooperative TimeSliceScheduler
  /// (time_slice.hpp); each worker clones the reduced network. An Unsafe
  /// winner's trace is lifted through the transform stack and refereed by
  /// replayHitsBad on the ORIGINAL network before it is reported.
  /// Thread-safe.
  [[nodiscard]] PortfolioResult run(const mc::Network& net) const;

 private:
  /// The race leg. `opts` is the caller's option set with the
  /// whole-problem time limit already reduced by preprocessing time.
  [[nodiscard]] PortfolioResult runRace(const mc::Network& net,
                                        const PortfolioOptions& opts) const;

  /// Emits the final "result" progress event (no-op without a sink).
  void emitResult(const std::string& problemName,
                  const PortfolioResult& res) const;

  PortfolioOptions opts_;
};

}  // namespace cbq::portfolio
