#pragma once
// Backend-neutral SAT query surface.
//
// Two engines answer the same circuit-level questions: the circuit-native
// `sat::CircuitSolver`, whose propagation walks the AIG directly and which
// serves every sweep/quantification/DC/fixpoint/trace query, and the
// clause-level `sat::Solver` behind a lazy Tseitin encoding
// (cnf::AigCnf), kept as the independent oracle the tests and benches
// compare the circuit engine against. Both sit behind this interface so
// the checks below run on either without knowing which.
//
// Queries and learned facts are phrased entirely in aig::Lit — the CNF
// backend translates to solver variables internally; the circuit backend
// uses them as-is (an AIG literal IS a circuit-solver literal).

#include <cstdint>
#include <functional>
#include <span>

#include "aig/aig.hpp"
#include "aig/lit.hpp"
#include "sat/solver.hpp"

namespace cbq::sat {

/// Three-valued answer of a budgeted semantic check. Holds/Fails are
/// definitive; Unknown means the budget or an interrupt cut the query
/// short. (cnf::Verdict aliases this type.)
enum class Verdict : std::uint8_t { Holds, Fails, Unknown };

/// One SAT engine bound to one AIG manager. Implementations: the
/// CNF-encoding wrapper (cnf::CnfSolverBackend) and the circuit-native
/// solver (sat::CircuitSolver).
class SatBackend {
 public:
  virtual ~SatBackend() = default;

  /// Stable short name for reports: "cnf" or "circuit".
  [[nodiscard]] virtual const char* name() const = 0;

  /// Satisfiability of the bound circuit under `assumptions`, bounded by
  /// `conflictBudget` (< 0 = unlimited). Undef on budget/interrupt.
  virtual Status solve(std::span<const aig::Lit> assumptions,
                       std::int64_t conflictBudget) = 0;

  /// Restricts decisions to the cones of `roots` (and prepares whatever
  /// per-cone state the engine needs — the CNF backend encodes here).
  virtual void focusOn(std::span<const aig::Lit> roots) = 0;

  /// Adds a permanent constraint clause over AIG literals. Returns false
  /// when the clause database became unsatisfiable.
  virtual bool addClause(std::span<const aig::Lit> lits) = 0;

  /// Model value of PI variable `v` after a Sat answer (false for
  /// variables the engine never touched — a free input).
  [[nodiscard]] virtual bool modelOf(aig::VarId v) const = 0;

  /// Cooperative cancellation hook, polled during search.
  virtual void setInterrupt(std::function<bool()> fn) = 0;

  /// Effort counters, cumulative over the engine's lifetime.
  [[nodiscard]] virtual std::uint64_t conflicts() const = 0;
  [[nodiscard]] virtual std::uint64_t decisions() const = 0;
  [[nodiscard]] virtual std::uint64_t propagations() const = 0;
};

// Budgeted semantic checks over any backend. Same contracts as the
// cnf::check* family (aig_cnf.hpp): structural short-circuits first,
// then assumption-only queries; Unknown on budget exhaustion.

/// a == b everywhere?
[[nodiscard]] Verdict checkEquiv(SatBackend& backend, aig::Lit a, aig::Lit b,
                                 std::int64_t budget = -1);

/// a -> b everywhere?
[[nodiscard]] Verdict checkImplies(SatBackend& backend, aig::Lit a,
                                   aig::Lit b, std::int64_t budget = -1);

/// a == value everywhere?
[[nodiscard]] Verdict checkConstant(SatBackend& backend, aig::Lit a,
                                    bool value, std::int64_t budget = -1);

/// Is f satisfiable? Holds = yes, Fails = no.
[[nodiscard]] Verdict checkSat(SatBackend& backend, aig::Lit f,
                               std::int64_t budget = -1);

/// a == b on every input satisfying `notRef` (care-set equivalence: the
/// DC-simplification query assumes the don't-care condition's literal).
[[nodiscard]] Verdict checkEquivUnderCare(SatBackend& backend,
                                          aig::Lit notRef, aig::Lit a,
                                          aig::Lit b,
                                          std::int64_t budget = -1);

/// Backend-neutral twin of exportEffort(stats, Solver) in solver.hpp:
/// canonical sat.conflicts / sat.decisions / sat.propagations counters.
inline void exportEffort(obs::Metrics& stats, const SatBackend& backend) {
  stats.add("sat.conflicts",
            static_cast<std::int64_t>(backend.conflicts()));
  stats.add("sat.decisions",
            static_cast<std::int64_t>(backend.decisions()));
  stats.add("sat.propagations",
            static_cast<std::int64_t>(backend.propagations()));
}

}  // namespace cbq::sat
