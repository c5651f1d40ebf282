#pragma once
// Shared skeleton for the AIG-based backward-reachability engines.
//
// The three SAT-flavoured engines (circuit quantification, all-SAT
// pre-image, hybrid) differ only in how they eliminate the input
// variables from the in-lined pre-image formula; everything else —
// the fixpoint loop, the reached-set archive, counterexample
// reconstruction, compaction — is identical and lives here, as a
// resumable Session: the working manager, the frontier/reached cones,
// the persistent sweep session and the archive survive a budget pause,
// and the next resume() continues from the iteration boundary (or
// retries the interrupted pre-image / fixpoint step) instead of
// starting over.
//
// Each pre-image is simplified against the reached set before it is
// committed (frontier DC, synth::dcSimplify with reached as the
// don't-care set). The reached set as a function is unchanged, but the
// committed frontier — and so the next pre-image — shrinks, and the same
// call decides the fixpoint: a constant-false result proves it, a
// simulated escape refutes it, and only otherwise does one implication
// query run. The archive keeps the cumulative reached sets R_j that the
// counterexample descent targets.
//
// The skeleton owns the run's one persistent sweep session (a circuit
// SAT solver + proven/refuted pair cache bound to the working manager,
// see sweep/sweep_context.hpp): the per-engine eliminator receives it via
// PreImageRequest and threads it into its quantifier, and the frontier
// DC and fixpoint queries use it too. The working manager is compacted
// after every committed frontier; the session carries its pair cache
// across each compaction, so it survives across iterations.

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mc/engines.hpp"
#include "sweep/sweep_context.hpp"

namespace cbq::mc::detail {

/// State handed to the per-engine input-elimination callback.
struct PreImageRequest {
  aig::Aig* mgr;                 ///< working manager
  aig::Lit formula;              ///< F(δ(s,i)) — inputs still present
  const Network* net;
  obs::Metrics* stats;
  const portfolio::Budget* budget;  ///< effective slice budget (never null)
  sweep::SweepContext* session;     ///< run-wide sweep session (never null)
};

/// Callback: eliminate the inputs from request.formula. Returns
/// std::nullopt to signal failure — a budget interrupt (the session
/// pauses and retries the pre-image next resume) or a permanent give-up
/// (the session finishes Unknown); the two are told apart by
/// request.budget->exhausted().
using InputEliminator =
    std::function<std::optional<aig::Lit>(const PreImageRequest&)>;

/// Rebuilds the trace of an Unsafe run of depth `d`. `reached[j]` (in
/// the `archive` manager, j < d) is R_j, the states that reach bad within
/// j steps, and the initial state lies in R_d but not in R_{d-1}.
/// `archNext`/`archBad` are the network's next-state functions and bad
/// cone in the archive. Every state of R_j \ R_{j-1} has a successor in
/// R_{j-1}, so one small SAT query per step picks inputs that descend
/// from R_{d-t} into R_{d-1-t}, whatever extra states of R_{j-1} a
/// simplified frontier kept; latches are stepped by simulation on the
/// original network. One solver serves every step: the targets all live
/// in the archive and each query is phrased purely through assumptions
/// (target literal + current state values), so learnt gates carry over
/// for the whole descent. Returns d + 1 input vectors.
Trace reconstructTrace(const Network& net, aig::Aig& archive,
                       std::span<const aig::Lit> archNext, aig::Lit archBad,
                       std::span<const aig::Lit> reached, int d,
                       obs::Metrics& stats);

/// Resumable backward reachability with AIG state sets. `eliminate` is
/// invoked once on the initial bad cone and once per pre-image.
/// `limits.timeLimitSeconds` is measured against the session's total
/// accumulated time; the slice budget's node limit applies to the
/// reached-set cone.
class BackwardReachSession final : public Session {
 public:
  BackwardReachSession(const Network& net, std::string engineName,
                       const ReachLimits& limits, InputEliminator eliminate);

  [[nodiscard]] std::string name() const override { return res_.engine; }

 protected:
  Progress doResume(const portfolio::Budget& budget) override;

 private:
  // The resume state machine. Pausing leaves the phase unchanged, so the
  // interrupted step (pre-image elimination, fixpoint implication, trace
  // descent) is retried — deterministically, because the working manager
  // is strashed and the retried query starts from identical inputs.
  enum class Phase : std::uint8_t {
    Init,   ///< frontier 0: eliminate inputs from the bad cone
    Guard,  ///< iteration/cone limits, then commit to the next pre-image
    Pre,    ///< in-line substitution + input elimination -> pre_
    Fix,    ///< frontier DC of pre_ against reached (Safe on fixpoint)
    Trace,  ///< counterexample reconstruction over the archive
  };

  Progress run(const portfolio::Budget& bud);
  Progress snapshot(Verdict v, bool done);
  void commitFrontier(aig::Lit frontier);
  void compact();

  const Network* net_;
  ReachLimits limits_;
  InputEliminator eliminate_;

  CheckResult res_;  ///< cumulative engine/steps/stats/cex record

  aig::Aig mgr_;                     ///< working manager
  std::vector<aig::Lit> nextL_;
  aig::Lit badL_ = aig::kFalse;
  std::vector<aig::VarSub> subst_;

  sweep::SweepContext session_;      ///< every SAT query of the run

  aig::Aig archive_;                 ///< reached-set history for traces
  std::vector<aig::Lit> archNext_;
  aig::Lit archBad_ = aig::kFalse;
  std::vector<aig::Lit> reachedArch_;  ///< R_j: states within j steps of bad

  aig::Lit frontier_ = aig::kFalse;
  aig::Lit reached_ = aig::kFalse;
  aig::Lit pre_ = aig::kFalse;       ///< valid in Phase::Fix
  std::vector<bool> initDense_;      ///< dense initial-state assignment
  int iter_ = 0;
  int committedThisSlice_ = 0;
  Phase phase_ = Phase::Init;

  /// Budget of the resume() currently executing — what the sweep-session
  /// interrupt callbacks poll. Null between resumes.
  const portfolio::Budget* curBud_ = nullptr;
};

}  // namespace cbq::mc::detail
