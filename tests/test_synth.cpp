// Optimization-phase tests: the don't-care simplifier must preserve the
// disjunction fRef ∨ fTgt exactly (checked against truth tables), shrink
// constructed examples, and honour the ODC escape hatch.

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "synth/dc_simplify.hpp"
#include "util/random.hpp"

namespace cbq {
namespace {

using aig::Aig;
using aig::Lit;
using synth::dcSimplify;
using synth::DcOptions;

std::vector<bool> orTable(const Aig& g, Lit a, Lit b, int n) {
  auto ta = test::truthTable(g, a, n);
  const auto tb = test::truthTable(g, b, n);
  for (std::size_t i = 0; i < ta.size(); ++i)
    ta[i] = ta[i] || tb[i];
  return ta;
}

class DcRandomized : public ::testing::TestWithParam<int> {};

TEST_P(DcRandomized, DisjunctionIsPreserved) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 97 + 1);
  Aig g;
  const Lit fRef = test::randomFormula(g, rng, 5, 40);
  const Lit fTgt = test::randomFormula(g, rng, 5, 40);
  const auto before = orTable(g, fRef, fTgt, 5);

  const auto r = dcSimplify(g, fRef, fTgt, {});
  EXPECT_EQ(orTable(g, fRef, r.target, 5), before);
}

TEST_P(DcRandomized, OdcDisabledStillPreserves) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 101 + 2);
  Aig g;
  const Lit fRef = test::randomFormula(g, rng, 5, 40);
  const Lit fTgt = test::randomFormula(g, rng, 5, 40);
  const auto before = orTable(g, fRef, fTgt, 5);
  DcOptions opts;
  opts.useOdc = false;
  const auto r = dcSimplify(g, fRef, fTgt, opts);
  EXPECT_EQ(orTable(g, fRef, r.target, 5), before);
}

TEST_P(DcRandomized, InputDcReplacementsMatchOutsideDcSet) {
  // Stronger than the disjunction property: wherever fRef = 0 the
  // simplified target must equal the original pointwise.
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 103 + 3);
  Aig g;
  const Lit fRef = test::randomFormula(g, rng, 5, 30);
  const Lit fTgt = test::randomFormula(g, rng, 5, 30);
  DcOptions opts;
  opts.useOdc = false;  // ODC replacements are allowed to differ pointwise
  const auto r = dcSimplify(g, fRef, fTgt, opts);
  const auto tRef = test::truthTable(g, fRef, 5);
  const auto tOld = test::truthTable(g, fTgt, 5);
  const auto tNew = test::truthTable(g, r.target, 5);
  for (std::size_t i = 0; i < tRef.size(); ++i) {
    if (!tRef[i]) {
      EXPECT_EQ(tNew[i], tOld[i]) << "care minterm " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DcRandomized, ::testing::Range(0, 12));

TEST(DcSimplify, TautologicalReferenceCollapsesTarget) {
  Aig g;
  const Lit fTgt = g.mkAnd(g.pi(0), g.pi(1));
  const auto r = dcSimplify(g, aig::kTrue, fTgt, {});
  EXPECT_TRUE(r.target.isFalse());
}

TEST(DcSimplify, ConstantTargetIsFixpoint) {
  Aig g;
  const Lit fRef = g.pi(0);
  const auto r = dcSimplify(g, fRef, aig::kFalse, {});
  EXPECT_TRUE(r.target.isFalse());
}

TEST(DcSimplify, SubsumedTargetShrinksToConstant) {
  // fTgt implies fRef, so inside the care set (¬fRef) the target is
  // identically 0: the simplifier should find the constant replacement.
  Aig g;
  const Lit a = g.pi(0);
  const Lit b = g.pi(1);
  const Lit fRef = g.mkOr(a, b);
  const Lit fTgt = g.mkAnd(a, b);
  const auto r = dcSimplify(g, fRef, fTgt, {});
  EXPECT_TRUE(r.target.isFalse());
  EXPECT_GT(r.stats.constReplacements + r.stats.odcReplacements, 0u);
}

TEST(DcSimplify, MergeCandidateWithinCareSet) {
  // Inside the care set !a (i.e. a = 0): a^b == b, so the XOR structure
  // of the target can collapse onto the plain variable.
  Aig g;
  const Lit a = g.pi(0);
  const Lit b = g.pi(1);
  const Lit c = g.pi(2);
  const Lit fRef = a;
  const Lit fTgt = g.mkAnd(g.mkXor(a, b), c);
  const auto before = orTable(g, fRef, fTgt, 3);
  const auto r = dcSimplify(g, fRef, fTgt, {});
  EXPECT_EQ(orTable(g, fRef, r.target, 3), before);
  EXPECT_LE(g.coneSize(r.target), g.coneSize(fTgt));
}

TEST(DcSimplify, StatsAccounting) {
  Aig g;
  util::Random rng(21);
  const Lit fRef = test::randomFormula(g, rng, 4, 20);
  const Lit fTgt = test::randomFormula(g, rng, 4, 20);
  const auto r = dcSimplify(g, fRef, fTgt, {});
  EXPECT_GE(r.stats.satChecks,
            r.stats.constReplacements + r.stats.mergeReplacements);
  EXPECT_EQ(r.stats.nodesBefore, g.coneSize(fTgt));
}

// Root-first: a target inside fRef costs exactly the one implication
// query and comes back constant false (the backward fixpoint case).
TEST_P(DcRandomized, SubsumedTargetIsOneQuery) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 107 + 4);
  int checked = 0;
  for (int draw = 0; draw < 4; ++draw) {
    Aig g;
    const Lit a = test::randomFormula(g, rng, 6, 30);
    const Lit b = test::randomFormula(g, rng, 6, 30);
    const Lit c = test::randomFormula(g, rng, 6, 30);
    const Lit fTgt = g.mkAnd(a, b);  // fTgt ⊆ a ⊆ fRef
    const Lit fRef = g.mkOr(a, c);
    if (fTgt.isConstant() || fRef.isTrue()) continue;  // early-out paths
    const auto tTgt = test::truthTable(g, fTgt, 6);
    const auto tRef = test::truthTable(g, fRef, 6);
    for (std::size_t i = 0; i < tTgt.size(); ++i)
      ASSERT_TRUE(!tTgt[i] || tRef[i]) << "minterm " << i;

    const auto r = dcSimplify(g, fRef, fTgt, {});
    EXPECT_TRUE(r.target.isFalse()) << "draw " << draw;
    EXPECT_FALSE(r.escapes) << "draw " << draw;
    EXPECT_EQ(r.stats.satChecks, 1u) << "draw " << draw;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// `escapes` is a witness claim: fTgt ∧ ¬fRef must be satisfiable.
TEST_P(DcRandomized, EscapesImpliesTargetOutsideReference) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 109 + 5);
  for (int draw = 0; draw < 8; ++draw) {
    Aig g;
    const Lit fRef = test::randomFormula(g, rng, 5, 30);
    const Lit fTgt = test::randomFormula(g, rng, 5, 30);
    const auto r = dcSimplify(g, fRef, fTgt, {});
    const auto tRef = test::truthTable(g, fRef, 5);
    const auto tTgt = test::truthTable(g, fTgt, 5);
    bool outside = false;
    for (std::size_t i = 0; i < tRef.size(); ++i)
      outside = outside || (tTgt[i] && !tRef[i]);
    if (r.escapes) {
      EXPECT_TRUE(outside) << "draw " << draw;
    }
    if (!outside && !fTgt.isTrue()) {
      EXPECT_TRUE(r.target.isFalse()) << "draw " << draw;
    }
  }
}

// Targets whose few care minterms random simulation misses: the root
// simulates care-constant 0, so the root-first query runs, is refuted,
// and its witness must surface as `escapes` while the postcondition
// fRef ∨ result ≡ fRef ∨ fTgt still holds.
TEST_P(DcRandomized, RefutedRootFirstKeepsPostcondition) {
  constexpr int kVars = 12;
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 113 + 6);
  Aig g;
  std::vector<Lit> cube;
  for (aig::VarId v = 0; v < 10; ++v) cube.push_back(g.pi(v));
  const Lit fRef = test::randomFormula(g, rng, kVars, 40);
  const Lit tail = test::randomFormula(g, rng, kVars, 40);
  const Lit fTgt = g.mkAnd(g.mkAndAll(cube), g.mkOr(tail, g.pi(kVars - 1)));
  const auto before = orTable(g, fRef, fTgt, kVars);
  const auto tRef = test::truthTable(g, fRef, kVars);
  const auto tTgt = test::truthTable(g, fTgt, kVars);
  bool outside = false;
  for (std::size_t i = 0; i < tRef.size(); ++i)
    outside = outside || (tTgt[i] && !tRef[i]);

  const auto r = dcSimplify(g, fRef, fTgt, {});
  EXPECT_EQ(orTable(g, fRef, r.target, kVars), before);
  EXPECT_EQ(r.escapes, outside);
  EXPECT_GE(r.stats.satChecks, 1u);
}

TEST(Rewrite, PreservesFunctionAndNeverGrows) {
  Aig g;
  util::Random rng(31);
  const Lit f = test::randomFormula(g, rng, 5, 60);
  const auto tt = test::truthTable(g, f, 5);
  const Lit roots[] = {f};
  const Lit r = synth::rewrite(g, roots).front();
  EXPECT_EQ(test::truthTable(g, r, 5), tt);
  EXPECT_LE(g.coneSize(r), g.coneSize(f));
}

}  // namespace
}  // namespace cbq
