// BDD package tests: operator correctness against truth tables,
// quantification vs Shannon expansion, composition, relational product,
// node limits and satisfying-assignment extraction.

#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "helpers.hpp"
#include "util/random.hpp"

namespace cbq {
namespace {

using bdd::BddManager;
using bdd::BddRef;
using bdd::kFalseBdd;
using bdd::kTrueBdd;

std::vector<bool> bddTruth(const BddManager& m, BddRef f, int numVars) {
  std::vector<bool> tt;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << numVars); ++mask) {
    std::unordered_map<aig::VarId, bool> a;
    for (int v = 0; v < numVars; ++v)
      a.emplace(static_cast<aig::VarId>(v), ((mask >> v) & 1) != 0);
    tt.push_back(m.evaluate(f, a));
  }
  return tt;
}

TEST(Bdd, TerminalBasics) {
  BddManager m;
  EXPECT_TRUE(m.isTerminal(kFalseBdd));
  EXPECT_TRUE(m.isTerminal(kTrueBdd));
  EXPECT_EQ(m.bddNot(kTrueBdd), kFalseBdd);
  EXPECT_EQ(m.bddNot(kFalseBdd), kTrueBdd);
  EXPECT_EQ(m.size(kTrueBdd), 0u);
}

TEST(Bdd, VarIsCanonical) {
  BddManager m;
  EXPECT_EQ(m.var(0), m.var(0));
  EXPECT_NE(m.var(0), m.var(1));
  EXPECT_EQ(m.size(m.var(0)), 1u);
}

TEST(Bdd, BasicOperatorTables) {
  BddManager m;
  const BddRef a = m.var(0);
  const BddRef b = m.var(1);
  EXPECT_EQ(bddTruth(m, m.bddAnd(a, b), 2),
            (std::vector<bool>{0, 0, 0, 1}));
  EXPECT_EQ(bddTruth(m, m.bddOr(a, b), 2), (std::vector<bool>{0, 1, 1, 1}));
  EXPECT_EQ(bddTruth(m, m.bddXor(a, b), 2), (std::vector<bool>{0, 1, 1, 0}));
  EXPECT_EQ(bddTruth(m, m.bddImplies(a, b), 2),
            (std::vector<bool>{1, 0, 1, 1}));
  EXPECT_EQ(bddTruth(m, m.bddNot(a), 2), (std::vector<bool>{1, 0, 1, 0}));
}

TEST(Bdd, IteIsCanonical) {
  BddManager m;
  const BddRef a = m.var(0);
  const BddRef b = m.var(1);
  // Same function built two ways must be the same node.
  EXPECT_EQ(m.bddOr(a, b), m.bddNot(m.bddAnd(m.bddNot(a), m.bddNot(b))));
  EXPECT_EQ(m.ite(a, b, kFalseBdd), m.bddAnd(a, b));
  EXPECT_EQ(m.ite(a, kTrueBdd, b), m.bddOr(a, b));
}

TEST(Bdd, CofactorPinsVariable) {
  BddManager m;
  const BddRef a = m.var(0);
  const BddRef b = m.var(1);
  const BddRef f = m.bddXor(a, b);
  EXPECT_EQ(m.cofactor(f, 0, false), b);
  EXPECT_EQ(m.cofactor(f, 0, true), m.bddNot(b));
  EXPECT_EQ(m.cofactor(f, 7, true), f);  // absent var: identity
}

TEST(Bdd, ExistsEqualsShannonDisjunction) {
  BddManager m;
  util::Random rng(99);
  // Random function over 5 vars built from random minterm set.
  BddRef f = kFalseBdd;
  for (int i = 0; i < 12; ++i) {
    BddRef cube = kTrueBdd;
    for (int v = 0; v < 5; ++v) {
      BddRef lit = m.var(static_cast<aig::VarId>(v));
      if (rng.flip()) lit = m.bddNot(lit);
      if (rng.chance(2, 3)) cube = m.bddAnd(cube, lit);
    }
    f = m.bddOr(f, cube);
  }
  for (aig::VarId v = 0; v < 5; ++v) {
    const aig::VarId vars[] = {v};
    const BddRef ex = m.exists(f, vars);
    const BddRef shannon =
        m.bddOr(m.cofactor(f, v, false), m.cofactor(f, v, true));
    EXPECT_EQ(ex, shannon);
  }
  // Quantifying everything yields a constant.
  const aig::VarId all[] = {0, 1, 2, 3, 4};
  const BddRef ex = m.exists(f, all);
  EXPECT_TRUE(ex == kFalseBdd || ex == kTrueBdd);
}

TEST(Bdd, ComposeSubstitutesFunction) {
  BddManager m;
  const BddRef a = m.var(0);
  const BddRef b = m.var(1);
  const BddRef c = m.var(2);
  const BddRef f = m.bddAnd(a, b);
  // b := b | c.
  const BddRef composed = m.compose(f, {{1, m.bddOr(b, c)}});
  EXPECT_EQ(composed, m.bddAnd(a, m.bddOr(b, c)));
}

TEST(Bdd, ComposeHandlesUpwardDependencies) {
  BddManager m;
  const BddRef a = m.var(0);  // level 0
  const BddRef b = m.var(1);  // level 1
  // Substitute the *lower* variable with a function of the higher one.
  const BddRef f = m.bddAnd(a, b);
  const BddRef composed = m.compose(f, {{1, m.bddNot(a)}});
  EXPECT_EQ(composed, kFalseBdd);  // a & !a
}

TEST(Bdd, AndExistsMatchesComposition) {
  BddManager m;
  util::Random rng(7);
  BddRef f = kFalseBdd;
  BddRef g = kFalseBdd;
  for (int i = 0; i < 10; ++i) {
    BddRef cubeF = kTrueBdd;
    BddRef cubeG = kTrueBdd;
    for (int v = 0; v < 6; ++v) {
      BddRef lit = m.var(static_cast<aig::VarId>(v));
      if (rng.flip()) lit = m.bddNot(lit);
      if (rng.flip()) cubeF = m.bddAnd(cubeF, lit);
      if (rng.flip()) cubeG = m.bddAnd(cubeG, lit);
    }
    f = m.bddOr(f, cubeF);
    g = m.bddOr(g, cubeG);
  }
  const aig::VarId vars[] = {1, 3, 4};
  EXPECT_EQ(m.andExists(f, g, vars), m.exists(m.bddAnd(f, g), vars));
}

TEST(Bdd, SatCountOnKnownFunctions) {
  BddManager m;
  const BddRef a = m.var(0);
  const BddRef b = m.var(1);
  const BddRef c = m.var(2);
  const BddRef f = m.bddOr(m.bddAnd(a, b), c);
  // Over 3 vars: |ab| = 2, |c| = 4, overlap |abc| = 1 -> 5 minterms.
  EXPECT_DOUBLE_EQ(m.satCount(f), 5.0);
  EXPECT_DOUBLE_EQ(m.satCount(kTrueBdd), 8.0);
  EXPECT_DOUBLE_EQ(m.satCount(kFalseBdd), 0.0);
}

TEST(Bdd, NodeLimitThrows) {
  BddManager m(8);  // tiny limit
  EXPECT_THROW(
      {
        BddRef f = kFalseBdd;
        for (int v = 0; v < 16; ++v) {
          BddRef cube = kTrueBdd;
          for (int u = 0; u < 8; ++u) {
            BddRef lit = m.var(static_cast<aig::VarId>(u));
            if (((v >> (u % 4)) & 1) != 0) lit = m.bddNot(lit);
            cube = m.bddAnd(cube, lit);
          }
          f = m.bddOr(f, cube);
        }
      },
      bdd::NodeLimitExceeded);
}

// OR of x_i & y_i with every x ordered above every y: the BDD is
// exponential in the pairs, so both the unique table and the lossy ITE
// table outgrow their initial size. Rebuilding after the ITE table is
// dropped must find every node again: same root, no new node.
TEST(Bdd, RecomputationAfterCacheLossAllocatesNothing) {
  constexpr int kPairs = 10;
  BddManager m;
  for (int v = 0; v < 2 * kPairs; ++v)
    m.registerVar(static_cast<aig::VarId>(v));
  auto build = [&] {
    BddRef f = kFalseBdd;
    for (int i = 0; i < kPairs; ++i) {
      const BddRef x = m.var(static_cast<aig::VarId>(i));
      const BddRef y = m.var(static_cast<aig::VarId>(kPairs + i));
      f = m.bddOr(f, m.bddAnd(x, y));
    }
    return f;
  };
  const BddRef f = build();
  const std::size_t nodes = m.numNodes();
  EXPECT_GT(nodes, 1024u);
  // 4^10 assignments of the pairs minus the 3^10 with no pair both true.
  EXPECT_DOUBLE_EQ(m.satCount(f), 1048576.0 - 59049.0);
  m.clearCaches();
  EXPECT_EQ(build(), f);
  EXPECT_EQ(m.numNodes(), nodes);
}

TEST(Bdd, AnySatFindsWitness) {
  BddManager m;
  const BddRef a = m.var(0);
  const BddRef b = m.var(1);
  const BddRef f = m.bddAnd(a, m.bddNot(b));
  const auto pick = m.anySat(f);
  std::unordered_map<aig::VarId, bool> full;
  for (aig::VarId v = 0; v < 2; ++v) {
    auto it = pick.find(v);
    full.emplace(v, it != pick.end() && it->second);
  }
  EXPECT_TRUE(m.evaluate(f, full));
  EXPECT_TRUE(m.anySat(kFalseBdd).empty());
}

// AIG -> BDD conversion cross-checked on random formulas.
class BddFromAig : public ::testing::TestWithParam<int> {};

TEST_P(BddFromAig, MatchesAigTruthTable) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) + 50);
  aig::Aig g;
  const aig::Lit f = test::randomFormula(g, rng, 6, 50);
  BddManager m;
  const BddRef fb = bdd::aigToBdd(g, f, m);
  EXPECT_EQ(bddTruth(m, fb, 6), test::truthTable(g, f, 6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddFromAig, ::testing::Range(0, 10));

}  // namespace
}  // namespace cbq
