#pragma once
// Cooperative time-sliced portfolio — the paper's complementary-strengths
// observation exploited on as few as one core.
//
// The racing runner (runner.hpp) needs a thread per engine and burns
// every core on work that is thrown away when a rival wins. The
// time-slice scheduler instead opens one persistent Session per engine
// (Engine::start) and round-robins them on a configurable worker count
// (including 1): each turn, a session resumes under a per-slice budget,
// pauses at its next natural boundary with all state intact, reports
// Progress telemetry, and goes to the back of the queue. Slice lengths
// adapt per session: a slice that committed no new bound/iteration was
// too short to reach the engine's next pause point and is promoted
// (doubled, capped); a slice that ripped through many bounds is demoted
// (halved, floored) so rivals interleave at finer grain. The first
// definitive verdict wins — Unsafe must pass the replayHitsBad referee,
// exactly as in the race — and cancels everyone via the shared token.

#include "mc/network.hpp"
#include "portfolio/runner.hpp"

namespace cbq::portfolio {

class TimeSliceScheduler {
 public:
  /// Uses the engine set, budgets and sliceWorkers of `opts` (the
  /// schedule field itself is ignored — callers that want
  /// dispatch go through PortfolioRunner). Throws std::invalid_argument
  /// when an engine name is unknown.
  explicit TimeSliceScheduler(PortfolioOptions opts = {});

  /// Schedules the engine sessions on `net` until a definitive verdict,
  /// every session is done, or the whole-problem budget expires.
  /// Thread-safe; `net` is cloned per engine up front.
  [[nodiscard]] PortfolioResult run(const mc::Network& net) const;

 private:
  PortfolioOptions opts_;
};

}  // namespace cbq::portfolio
