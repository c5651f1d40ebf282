#pragma once
// Equivalence detection and node merging — the paper's merge phase (§2.1).
//
// Given the cones of a set of roots (in practice: the two cofactors of the
// quantified variable), find functionally equivalent internal nodes and
// rebuild the cones with every equivalence class collapsed onto one
// representative. Three detection layers, exactly as in the paper:
//
//  1. AIG semi-canonicity: structural hashing already identifies
//     syntactically equal nodes — it happens implicitly in the manager.
//  2. BDD sweeping: size-bounded BDDs are built bottom-up in a shared
//     manager; nodes whose BDDs coincide (modulo complement) are merged
//     without touching the SAT solver. Cones whose BDDs blow past the
//     node limit simply drop out of this layer.
//  3. SAT-based checks on the remaining compare points: candidate classes
//     come from complement-normalized simulation signatures; each check is
//     a pair of assumption-only queries against ONE shared circuit
//     solver ("load once, factorize many checks in a single run").
//     Disproofs return counterexamples that are packed — 64 at a time —
//     into new simulation words, splitting every class they distinguish;
//     proofs are learned into the solver as biconditional clauses so later
//     checks get cheaper ("as long as we find equivalent points, we can
//     learn them").
//
// Forward mode processes compare points inputs→outputs; backward mode
// outputs→inputs, re-checking reachability from the roots after each merge
// round so that checks inside already-merged regions are skipped — the
// paper's observation that backward pays off when the cofactors are very
// similar (one root-level proof subsumes everything below).

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "aig/aig.hpp"

namespace cbq::sweep {

class SweepContext;

struct SweepOptions {
  int numWords = 2;               ///< initial random simulation words/node
  std::int64_t satBudget = 2000;  ///< conflicts per SAT equivalence query
  bool useBdd = true;             ///< enable layer 2
  bool useSat = true;             ///< enable layer 3
  bool backward = false;          ///< outputs-first compare-point order
  std::uint64_t seed = 0x5eed;    ///< simulation seed

  /// Cooperative stop, polled once per SAT compare-point check. Sweeping
  /// is an optimization: when the callback fires, the rounds stop and the
  /// cones are rebuilt with whatever merges are already proven (sound).
  std::function<bool()> interrupt{};

  /// Persistent sweep session (solver + pair cache shared across
  /// calls). When null, each sweep() builds a private throwaway session —
  /// the pre-session behaviour. The context must be bound (or bindable)
  /// to the same manager the sweep runs in; sweep() calls bind() itself.
  SweepContext* context = nullptr;

};

struct SweepStats {
  std::size_t bddMerges = 0;   ///< merges proven by BDD pointer equality
  std::size_t satMerges = 0;   ///< merges proven UNSAT
  std::size_t constMerges = 0; ///< nodes proven constant
  std::size_t satChecks = 0;   ///< SAT equivalence queries issued
  std::size_t satRefuted = 0;  ///< queries answered SAT (not equivalent)
  std::size_t satUnknown = 0;  ///< budget exhausted
  std::size_t rounds = 0;      ///< refinement rounds executed
  std::size_t nodesBefore = 0; ///< cone size before
  std::size_t nodesAfter = 0;  ///< cone size after rebuild
  std::size_t skippedUnreferenced = 0;  ///< backward-mode pruned checks
  std::size_t cacheHitsProven = 0;   ///< merges taken from the pair cache
  std::size_t cacheHitsRefuted = 0;  ///< SAT checks skipped as known-refuted
};

struct SweepResult {
  std::vector<aig::Lit> roots;  ///< rebuilt roots, same order as input
  SweepStats stats;
};

/// Detects equivalent nodes in the cones of `roots` and rebuilds the cones
/// with merges applied. New nodes are added to `aig`; the returned literals
/// express the same functions as the inputs.
SweepResult sweep(aig::Aig& aig, std::span<const aig::Lit> roots,
                  const SweepOptions& opts = {});

}  // namespace cbq::sweep
