#pragma once
// Circuit-based existential quantification — the paper's core contribution.
//
// ∃v.F is computed as F|v=0 ∨ F|v=1 on the AIG representation, with the
// blow-up fought in two phases per variable (§2):
//
//   1. merge phase   — structural hashing happens for free while the
//                      cofactors are rebuilt in the shared manager; the
//                      sweeping engine (BDD sweeping + incremental SAT
//                      checks) then collapses every functionally
//                      equivalent pair of cofactor nodes;
//   2. optimization  — each cofactor is simplified using the other's onset
//                      as an input don't-care set (plus the ODC variant),
//                      then the disjunction is rebuilt through the
//                      manager's rewrite rules.
//
// Multi-variable quantification schedules variables cheapest-first (fewest
// dependent cone nodes) and supports the paper's §4 **partial
// quantification**: a variable whose elimination would exceed the growth
// bound is aborted and reported as *residual*, so a SAT-based engine can
// finish the job on a formula with far fewer decision variables.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "sweep/sweeper.hpp"
#include "synth/dc_simplify.hpp"
#include "obs/metrics.hpp"

namespace cbq::quant {

struct QuantOptions {
  bool useSubstitution = true;   ///< §3 in-lining fast path (see below)
  bool mergePhase = true;        ///< enable §2.1 (sweeping of the cofactors)
  bool optPhase = true;          ///< enable §2.2 (DC-based simplification)
  sweep::SweepOptions sweepOpts{};
  synth::DcOptions dcOpts{};
  double growthLimit = 2.0;      ///< abort var when result cone exceeds
  std::size_t growthSlack = 32;  ///<   growthLimit * before + growthSlack
  int abortRetries = 1;          ///< re-attempts of aborted vars at the end

  /// Cooperative stop, polled between variables by quantifyAll: while it
  /// returns true, unprocessed variables are reported as residual so the
  /// caller can notice the interruption and bail out. Engines bind this to
  /// their run Budget (portfolio cancellation / deadline).
  std::function<bool()> interrupt{};

  /// Persistent sweep session shared by every merge-phase sweep and every
  /// DC simplification this quantifier performs (and, when the engine owns
  /// the context, by all its quantifiers and fixpoint checks across a
  /// whole reachability run). Propagated into sweepOpts.context /
  /// dcOpts.context by the Quantifier constructor unless those are already
  /// set. Null = per-call throwaway solvers (the pre-session behaviour).
  sweep::SweepContext* context = nullptr;
};

/// Quantifier bound to one AIG manager. Accumulates statistics across
/// calls; engines read them for the ablation experiments.
class Quantifier {
 public:
  explicit Quantifier(aig::Aig& aig, QuantOptions opts = {})
      : aig_(&aig), opts_(std::move(opts)) {
    // The per-variable phases run long on hard cones; the interrupt must
    // reach their inner SAT-check loops, not just the variable schedule.
    if (opts_.interrupt) {
      if (!opts_.sweepOpts.interrupt)
        opts_.sweepOpts.interrupt = opts_.interrupt;
      if (!opts_.dcOpts.interrupt) opts_.dcOpts.interrupt = opts_.interrupt;
    }
    // One session for every sweep and DC pass of this quantifier.
    if (opts_.context != nullptr) {
      if (opts_.sweepOpts.context == nullptr)
        opts_.sweepOpts.context = opts_.context;
      if (opts_.dcOpts.context == nullptr)
        opts_.dcOpts.context = opts_.context;
    }
  }

  /// ∃v.f — full per-variable pipeline. Returns std::nullopt when partial
  /// quantification aborted the variable (result would exceed the growth
  /// bound); the manager may still contain the scratch nodes.
  std::optional<aig::Lit> quantifyVar(aig::Lit f, aig::VarId v);

  /// Like quantifyVar but never aborts (growth bound ignored).
  aig::Lit quantifyVarForced(aig::Lit f, aig::VarId v);

  /// §3 "quantification by substitution" (in-lining): when f contains a
  /// top-level definition conjunct — the literal v/!v itself, or
  /// v ↔ g with g independent of v — then ∃v.f = rest[v := g] exactly,
  /// with no cofactor doubling at all. Returns std::nullopt when no such
  /// conjunct exists. Backward-reachability formulas have this shape by
  /// construction, which is the paper's §3 observation; quantifyVar tries
  /// this rule first when options().useSubstitution is set.
  std::optional<aig::Lit> quantifyBySubstitution(aig::Lit f, aig::VarId v);

  struct Result {
    aig::Lit f;                        ///< formula with vars eliminated
    std::vector<aig::VarId> residual;  ///< vars left in place by aborts
  };

  /// Eliminates every variable of `vars` (cheapest first), honouring the
  /// abort policy. Residual variables still occur in the returned formula.
  Result quantifyAll(aig::Lit f, std::span<const aig::VarId> vars);

  [[nodiscard]] const obs::Metrics& stats() const { return stats_; }
  obs::Metrics& stats() { return stats_; }

  [[nodiscard]] const QuantOptions& options() const { return opts_; }

 private:
  std::optional<aig::Lit> quantifyVarImpl(aig::Lit f, aig::VarId v,
                                          bool enforceGrowth);

  /// Scheduling cost: number of cone nodes whose structural support
  /// contains each candidate variable (cheap bottom-up bitset pass).
  std::vector<std::size_t> dependentCounts(
      aig::Lit f, std::span<const aig::VarId> vars) const;

  aig::Aig* aig_;
  QuantOptions opts_;
  obs::Metrics stats_;
};

}  // namespace cbq::quant
