#pragma once
// The clause-level SAT backend: sat::Solver behind the lazy Tseitin
// encoder, wrapped into the backend-neutral sat::SatBackend surface so it
// can be compared query-for-query against the circuit-native solver.
//
// Two ownership modes:
//  * non-owning — wraps a caller-owned (Solver, AigCnf) pair, keeping the
//    direct solver/encoder accessors available to audits and tests.
//  * owning — constructs a private solver + encoder for one manager; the
//    bench and fuzz harnesses take this.

#include <memory>

#include "cnf/aig_cnf.hpp"
#include "sat/backend.hpp"
#include "sat/solver.hpp"

namespace cbq::cnf {

class CnfSolverBackend final : public sat::SatBackend {
 public:
  /// Non-owning: `cnf` (and its solver) must outlive the backend.
  explicit CnfSolverBackend(AigCnf& cnf) : cnf_(&cnf) {}

  /// Owning: private solver + encoder bound to `aig`.
  explicit CnfSolverBackend(const aig::Aig& aig)
      : ownSolver_(std::make_unique<sat::Solver>()),
        ownCnf_(std::make_unique<AigCnf>(aig, *ownSolver_)),
        cnf_(ownCnf_.get()) {}

  [[nodiscard]] const char* name() const override { return "cnf"; }

  sat::Status solve(std::span<const aig::Lit> assumptions,
                    std::int64_t conflictBudget) override;

  void focusOn(std::span<const aig::Lit> roots) override {
    cnf_->focusOn(roots);
  }

  bool addClause(std::span<const aig::Lit> lits) override;

  [[nodiscard]] bool modelOf(aig::VarId v) const override {
    return cnf_->modelOf(v);
  }

  void setInterrupt(std::function<bool()> fn) override {
    cnf_->solver().setInterrupt(std::move(fn));
  }

  [[nodiscard]] std::uint64_t conflicts() const override {
    return cnf_->solver().conflicts();
  }
  [[nodiscard]] std::uint64_t decisions() const override {
    return cnf_->solver().decisions();
  }
  [[nodiscard]] std::uint64_t propagations() const override {
    return cnf_->solver().propagations();
  }

  [[nodiscard]] AigCnf& cnf() { return *cnf_; }

 private:
  std::unique_ptr<sat::Solver> ownSolver_;  // owning mode only
  std::unique_ptr<AigCnf> ownCnf_;
  AigCnf* cnf_;
  std::vector<sat::Lit> scratch_;
};

}  // namespace cbq::cnf
