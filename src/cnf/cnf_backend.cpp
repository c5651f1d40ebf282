#include "cnf/cnf_backend.hpp"

namespace cbq::cnf {

sat::Status CnfSolverBackend::solve(std::span<const aig::Lit> assumptions,
                                    std::int64_t conflictBudget) {
  scratch_.clear();
  for (const aig::Lit l : assumptions) scratch_.push_back(cnf_->litFor(l));
  return cnf_->solver().solveLimited(scratch_, conflictBudget);
}

bool CnfSolverBackend::addClause(std::span<const aig::Lit> lits) {
  scratch_.clear();
  for (const aig::Lit l : lits) scratch_.push_back(cnf_->litFor(l));
  return cnf_->solver().addClause(scratch_);
}

}  // namespace cbq::cnf
