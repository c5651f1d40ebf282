// Differential fuzzing of the circuit-native CDCL against the CNF path:
// on the same random cones, under the same assumptions and focus, both
// backends must return the same verdicts, every Sat model must extend to
// a real satisfying input assignment (checked by dense Aig::evaluate),
// and accumulation of learnt gates / interrupts must never change an
// answer — only defer it.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "audit/audit.hpp"
#include "cnf/cnf_backend.hpp"
#include "helpers.hpp"
#include "sat/backend.hpp"
#include "sat/circuit_solver.hpp"
#include "sweep/sweep_context.hpp"
#include "util/random.hpp"

namespace cbq {
namespace {

using cnf::Verdict;

constexpr int kVars = 6;

std::vector<bool> denseModel(const sat::SatBackend& b, int numVars) {
  std::vector<bool> m(static_cast<std::size_t>(numVars));
  for (int v = 0; v < numVars; ++v)
    m[static_cast<std::size_t>(v)] = b.modelOf(static_cast<aig::VarId>(v));
  return m;
}

TEST(CircuitSolver, ConstantLiterals) {
  aig::Aig g;
  sat::CircuitSolver s(g);
  const aig::Lit assumeTrue[] = {aig::kTrue};
  EXPECT_EQ(s.solveLimited(assumeTrue, -1), sat::Status::Sat);
  const aig::Lit assumeFalse[] = {aig::kFalse};
  EXPECT_EQ(s.solveLimited(assumeFalse, -1), sat::Status::Unsat);
}

TEST(CircuitSolver, SingleGateAndLazySync) {
  aig::Aig g;
  sat::CircuitSolver s(g);  // bound before the nodes exist
  const aig::Lit f = g.mkAnd(g.pi(0), g.pi(1));
  const aig::Lit assume[] = {f};
  ASSERT_EQ(s.solveLimited(assume, -1), sat::Status::Sat);
  EXPECT_TRUE(s.modelOf(0));
  EXPECT_TRUE(s.modelOf(1));

  const aig::Lit contradiction[] = {f, !g.pi(0)};
  EXPECT_EQ(s.solveLimited(contradiction, -1), sat::Status::Unsat);
  EXPECT_FALSE(s.conflictCore().empty());
}

TEST(CircuitSolver, BudgetZeroIsUnknown) {
  aig::Aig g;
  util::Random rng(7);
  const aig::Lit a = test::randomFormula(g, rng, kVars, 40);
  const aig::Lit b = test::randomFormula(g, rng, kVars, 40);
  sat::CircuitSolver s(g);
  if (a != b && a != !b) {
    EXPECT_EQ(sat::checkEquiv(s, a, b, 0), Verdict::Unknown);
  }
}

TEST(CircuitSolver, InterruptThenResume) {
  aig::Aig g;
  util::Random rng(11);
  const aig::Lit f = test::randomFormula(g, rng, kVars, 60);
  if (f.isConstant()) GTEST_SKIP() << "degenerate formula";

  sat::CircuitSolver cir(g);
  cir.setInterrupt([] { return true; });
  EXPECT_EQ(sat::checkSat(cir, f), Verdict::Unknown);

  // Clearing the interrupt resumes the same solver (learnt gates and
  // heuristic state intact) to the CNF path's answer.
  cir.setInterrupt({});
  cnf::CnfSolverBackend ref(g);
  EXPECT_EQ(sat::checkSat(cir, f), sat::checkSat(ref, f));
}

class CircuitDiff : public ::testing::TestWithParam<int> {};

TEST_P(CircuitDiff, AgreesWithCnfOnRandomCones) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  aig::Aig g;
  const aig::Lit a = test::randomFormula(g, rng, kVars, 35);
  const aig::Lit b = test::randomFormula(g, rng, kVars, 35);

  cnf::CnfSolverBackend ref(g);
  sat::CircuitSolver cir(g);

  // Satisfiability, with model validity on both sides.
  const Verdict satRef = sat::checkSat(ref, a);
  const Verdict satCir = sat::checkSat(cir, a);
  EXPECT_EQ(satRef, satCir);
  if (satCir == Verdict::Holds) {
    EXPECT_TRUE(g.evaluate(a, denseModel(cir, kVars)));
    EXPECT_TRUE(g.evaluate(a, denseModel(ref, kVars)));
  }

  // Equivalence, refereed by the exhaustive truth table.
  const bool equiv = test::equivalentExhaustive(g, a, b, kVars);
  const Verdict eqRef = sat::checkEquiv(ref, a, b);
  const Verdict eqCir = sat::checkEquiv(cir, a, b);
  EXPECT_EQ(eqRef, eqCir);
  EXPECT_EQ(eqCir == Verdict::Holds, equiv);
  if (eqCir == Verdict::Fails) {
    const std::vector<bool> m = denseModel(cir, kVars);
    EXPECT_NE(g.evaluate(a, m), g.evaluate(b, m));
  }

  // Constancy.
  EXPECT_EQ(sat::checkConstant(ref, a, false),
            sat::checkConstant(cir, a, false));
  EXPECT_EQ(sat::checkConstant(ref, a, true),
            sat::checkConstant(cir, a, true));
}

TEST_P(CircuitDiff, AgreesUnderAssumptionsAndFocus) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 409 + 29);
  aig::Aig g;
  const aig::Lit f = test::randomFormula(g, rng, kVars, 40);

  // Random PI assumptions (focus stays inside the cone of f plus the
  // assumed PIs, which are always decidable).
  std::vector<aig::Lit> assume;
  std::vector<int> forced(kVars, -1);  // -1 free, else forced value
  for (int v = 0; v < kVars; ++v) {
    if (!rng.flip()) continue;
    const bool val = rng.flip();
    forced[static_cast<std::size_t>(v)] = val ? 1 : 0;
    assume.push_back(g.pi(static_cast<aig::VarId>(v)) ^ !val);
  }
  assume.push_back(f);

  cnf::CnfSolverBackend ref(g);
  sat::CircuitSolver cir(g);
  const aig::Lit roots[] = {f};
  ref.focusOn(roots);
  cir.focusOn(roots);

  const sat::Status stRef = ref.solve(assume, -1);
  const sat::Status stCir = cir.solve(assume, -1);
  EXPECT_EQ(stRef, stCir);

  // Ground truth: does any minterm consistent with the assumptions
  // satisfy f?
  bool satisfiable = false;
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << kVars); ++m) {
    std::vector<bool> point(kVars);
    bool consistent = true;
    for (int v = 0; v < kVars; ++v) {
      point[static_cast<std::size_t>(v)] = ((m >> v) & 1) != 0;
      if (forced[static_cast<std::size_t>(v)] >= 0 &&
          point[static_cast<std::size_t>(v)] !=
              (forced[static_cast<std::size_t>(v)] == 1))
        consistent = false;
    }
    if (consistent && g.evaluate(f, point)) {
      satisfiable = true;
      break;
    }
  }
  EXPECT_EQ(stCir == sat::Status::Sat, satisfiable);
  if (stCir == sat::Status::Sat) {
    EXPECT_TRUE(g.evaluate(f, denseModel(cir, kVars)));
  }
}

TEST_P(CircuitDiff, LearntGatesAccumulateWithoutChangingAnswers) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 131 + 3);
  aig::Aig g;
  std::vector<aig::Lit> pool;
  for (int i = 0; i < 8; ++i)
    pool.push_back(test::randomFormula(g, rng, kVars, 25));

  // ONE persistent solver per backend answers a whole query stream;
  // proven equivalences are learned back as clauses mid-stream, the way
  // the sweeper does. Every verdict is refereed exhaustively.
  cnf::CnfSolverBackend ref(g);
  sat::CircuitSolver cir(g);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t j = i + 1; j < pool.size(); ++j) {
      const aig::Lit a = pool[i];
      const aig::Lit b = pool[j];
      const Verdict vRef = sat::checkEquiv(ref, a, b);
      const Verdict vCir = sat::checkEquiv(cir, a, b);
      ASSERT_EQ(vRef, vCir) << "pair " << i << "," << j;
      ASSERT_EQ(vCir == Verdict::Holds,
                test::equivalentExhaustive(g, a, b, kVars));
      if (vCir == Verdict::Holds && a != b) {
        const aig::Lit fwd[] = {!a, b};
        const aig::Lit bwd[] = {a, !b};
        ASSERT_TRUE(cir.addClause(fwd));
        ASSERT_TRUE(cir.addClause(bwd));
        ASSERT_TRUE(ref.addClause(fwd));
        ASSERT_TRUE(ref.addClause(bwd));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CircuitDiff, ::testing::Range(0, 12));

class ContextQueries : public ::testing::TestWithParam<int> {};

TEST_P(ContextQueries, AgreeWithExhaustive) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 53 + 17);
  aig::Aig g;
  std::vector<aig::Lit> pool;
  for (int i = 0; i < 6; ++i)
    pool.push_back(test::randomFormula(g, rng, kVars, 30));

  sweep::SweepContext ctx;
  ctx.bind(g);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t j = i + 1; j < pool.size(); ++j) {
      const Verdict v = ctx.checkEquiv(pool[i], pool[j]);
      ASSERT_EQ(v == Verdict::Holds,
                test::equivalentExhaustive(g, pool[i], pool[j], kVars));
      if (v == Verdict::Fails) {
        std::vector<bool> m(kVars);
        for (int vv = 0; vv < kVars; ++vv)
          m[static_cast<std::size_t>(vv)] =
              ctx.modelOf(static_cast<aig::VarId>(vv));
        ASSERT_NE(g.evaluate(pool[i], m), g.evaluate(pool[j], m));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContextQueries, ::testing::Range(0, 6));

// ----- arena auditor + corruption injection ---------------------------

/// A solver with a few stored constraint gates and a pending frontier,
/// for the auditor to chew on.
sat::CircuitSolver& solverWithGates(aig::Aig& g,
                                    std::unique_ptr<sat::CircuitSolver>& s) {
  util::Random rng(11);
  const aig::Lit f = test::randomFormula(g, rng, kVars, 30);
  s = std::make_unique<sat::CircuitSolver>(g);
  const aig::Lit clause1[] = {g.pi(0), g.pi(1), !g.pi(2)};
  const aig::Lit clause2[] = {!g.pi(0), g.pi(3)};
  EXPECT_TRUE(s->addClause(clause1));
  EXPECT_TRUE(s->addClause(clause2));
  const aig::Lit assume[] = {f};
  EXPECT_NE(s->solveLimited(assume, -1), sat::Status::Undef);
  return *s;
}

TEST(CircuitAudit, CleanSolverPasses) {
  aig::Aig g;
  std::unique_ptr<sat::CircuitSolver> holder;
  auto& s = solverWithGates(g, holder);
  const auto rep = audit::auditCircuitSolver(s);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(CircuitAudit, CorruptedArenaLitIsCaught) {
  aig::Aig g;
  std::unique_ptr<sat::CircuitSolver> holder;
  auto& s = solverWithGates(g, holder);
  // Point the first permanent gate's first input past the synced nodes.
  auto& arena = audit::Access::circuitArena(s);
  const auto gref = audit::Access::circuitPermanents(s).front();
  arena[gref + 2] = aig::Lit(static_cast<aig::NodeId>(1u << 20), false).raw();
  const auto rep = audit::auditCircuitSolver(s);
  EXPECT_TRUE(rep.has("circuit.arena.dangling-lit")) << rep.summary();
}

TEST(CircuitAudit, DroppedWatcherIsCaught) {
  aig::Aig g;
  std::unique_ptr<sat::CircuitSolver> holder;
  auto& s = solverWithGates(g, holder);
  // Silently drop one watcher of a stored gate.
  auto& watches = audit::Access::circuitWatches(s);
  const auto gref = audit::Access::circuitPermanents(s).front();
  bool dropped = false;
  for (auto& list : watches) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i].gref == gref) {
        list[i] = list.back();
        list.pop_back();
        dropped = true;
        break;
      }
    }
    if (dropped) break;
  }
  ASSERT_TRUE(dropped);
  const auto rep = audit::auditCircuitSolver(s);
  EXPECT_TRUE(rep.has("circuit.watch.missing")) << rep.summary();
}

TEST(CircuitAudit, SweepContextAuditsItsSolver) {
  aig::Aig g;
  util::Random rng(5);
  const aig::Lit a = test::randomFormula(g, rng, kVars, 25);
  const aig::Lit b = test::randomFormula(g, rng, kVars, 25);
  sweep::SweepContext ctx;
  ctx.bind(g);
  const aig::Lit roots[] = {a, b};
  ctx.focusOn(roots);
  (void)ctx.checkEquiv(a, b);
  const auto rep = audit::auditSweepContext(ctx, g);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

}  // namespace
}  // namespace cbq
