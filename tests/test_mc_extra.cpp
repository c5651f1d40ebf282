// Additional engine-level tests: the forward circuit engine's specifics,
// the multiplier (BDD-killer) family, engine option plumbing, and trace
// details that the parameterized suite does not pin down.

#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "circuits/families.hpp"
#include "circuits/suite.hpp"
#include "mc/backward_base.hpp"
#include "mc/engines.hpp"

namespace cbq {
namespace {

using mc::Verdict;

TEST(ForwardEngine, CountsForwardIterations) {
  // Forward reach on the buggy counter must walk 2^n - 1 images.
  const auto inst = circuits::makeInstance("counter", 3, false);
  mc::CircuitQuantForwardReach engine;
  const auto res = engine.check(inst.net);
  ASSERT_EQ(res.verdict, Verdict::Unsafe);
  EXPECT_EQ(res.steps, 7);
  ASSERT_TRUE(res.cex.has_value());
  EXPECT_EQ(res.cex->length(), 8u);
  EXPECT_TRUE(mc::replayHitsBad(inst.net, *res.cex));
}

TEST(ForwardEngine, SafeFixpointMatchesStateCount) {
  // The safe 3-bit counter visits 7 states; forward fixpoint at 7.
  const auto inst = circuits::makeInstance("counter", 3, true);
  mc::CircuitQuantForwardReach engine;
  const auto res = engine.check(inst.net);
  ASSERT_EQ(res.verdict, Verdict::Safe);
  EXPECT_EQ(res.steps, 7);
}

TEST(ForwardEngine, AgreesWithBddForwardOnDepths) {
  for (const char* family : {"ring", "traffic", "lfsr"}) {
    const auto inst = circuits::makeInstance(family, 4, true);
    mc::CircuitQuantForwardReach aigFwd;
    mc::BddForwardReach bddFwd;
    const auto a = aigFwd.check(inst.net);
    const auto b = bddFwd.check(inst.net);
    ASSERT_EQ(a.verdict, Verdict::Safe) << family;
    ASSERT_EQ(b.verdict, Verdict::Safe) << family;
    EXPECT_EQ(a.steps, b.steps) << family;
  }
}

TEST(ForwardEngine, IterationLimitGivesUnknown) {
  const auto inst = circuits::makeInstance("lfsr", 4, true);
  mc::CircuitQuantForwardOptions opts;
  opts.limits.maxIterations = 1;
  mc::CircuitQuantForwardReach engine(opts);
  EXPECT_EQ(engine.check(inst.net).verdict, Verdict::Unknown);
}

TEST(Multiplier, MiddleBitBddExplodesWhileAigStaysQuadratic) {
  // The §1 motivation measured directly: the bad cone of mult(k) has an
  // O(k^2) AIG but its BDD grows out of any polynomial budget.
  const auto small = circuits::makeMultiplier(6, false);
  const auto large = circuits::makeMultiplier(16, false);
  EXPECT_LT(large.aig.numAnds(), 2000u);  // quadratic circuit

  bdd::BddManager tiny(200'000);
  EXPECT_NO_THROW(bdd::aigToBdd(small.aig, small.bad, tiny));
  bdd::BddManager alsoTiny(200'000);
  EXPECT_THROW(bdd::aigToBdd(large.aig, large.bad, alsoTiny),
               bdd::NodeLimitExceeded);
}

TEST(Multiplier, CircuitEngineProvesWhereBddCannot) {
  const auto inst = circuits::makeInstance("mult", 14, true);
  mc::CircuitQuantReach cbqEngine;
  const auto a = cbqEngine.check(inst.net);
  EXPECT_EQ(a.verdict, Verdict::Safe);

  mc::BddReachOptions bddOpts;
  bddOpts.nodeLimit = 100'000;
  mc::BddBackwardReach bddEngine(bddOpts);
  const auto b = bddEngine.check(inst.net);
  EXPECT_EQ(b.verdict, Verdict::Unknown);
  EXPECT_GE(b.stats.count("bdd.node_limit_hits"), 1);
}

TEST(Multiplier, BuggyVariantDepthIsWidthMinusOne) {
  const auto inst = circuits::makeInstance("mult", 5, false);
  mc::Bmc bmc;
  const auto res = bmc.check(inst.net);
  ASSERT_EQ(res.verdict, Verdict::Unsafe);
  EXPECT_EQ(res.steps, 4);
  ASSERT_TRUE(res.cex.has_value());
  EXPECT_TRUE(mc::replayHitsBad(inst.net, *res.cex));
}

TEST(EngineOptions, QuantOptionsReachTheQuantifier) {
  // Disabling everything must not change verdicts, only sizes/work.
  const auto inst = circuits::makeInstance("evencount", 4, true);
  mc::CircuitQuantReachOptions bare;
  bare.quant.useSubstitution = false;
  bare.quant.mergePhase = false;
  bare.quant.optPhase = false;
  mc::CircuitQuantReach engine(bare);
  const auto res = engine.check(inst.net);
  EXPECT_EQ(res.verdict, Verdict::Safe);
  EXPECT_EQ(res.stats.count("merge.sat_checks"), 0);
  EXPECT_EQ(res.stats.count("opt.sat_checks"), 0);
}

TEST(EngineOptions, TimeLimitProducesUnknownNotWrongAnswer) {
  const auto inst = circuits::makeInstance("evencount", 5, true);
  mc::CircuitQuantReachOptions opts;
  opts.limits.timeLimitSeconds = 1e-9;
  mc::CircuitQuantReach engine(opts);
  const auto res = engine.check(inst.net);
  // Either it finished instantly (possible on a fast box for iteration 0)
  // or it reports Unknown; it must never report Unsafe.
  EXPECT_NE(res.verdict, Verdict::Unsafe);
}

TEST(EngineStats, BackwardEngineExposesWorkCounters) {
  const auto inst = circuits::makeInstance("evencount", 4, true);
  mc::CircuitQuantReach engine;
  const auto res = engine.check(inst.net);
  ASSERT_EQ(res.verdict, Verdict::Safe);
  EXPECT_GT(res.stats.count("reach.fixpoint_checks"), 0);
  EXPECT_GT(res.stats.count("quant.vars_attempted"), 0);
  EXPECT_GT(res.stats.gauge("reach.max_reached_cone"), 0.0);
}

// cbq-reach commits each pre-image simplified against the reached set.
// Its counterexamples must still replay and keep the shortest length
// (2^n - 1 steps on these families), and frontier DC must have replaced
// nodes on the way.
TEST(BackwardTrace, FrontierDcTracesReplayAtMinimalDepth) {
  const std::pair<const char*, int> cases[] = {
      {"counter", 8}, {"haystack", 8}, {"evencount", 9}, {"queue", 7}};
  for (const auto& [family, width] : cases) {
    const auto inst = circuits::makeInstance(family, width, false);
    const int depth =
        (1 << (std::string(family) == "evencount" ? width - 1 : width)) - 1;
    mc::CircuitQuantReach engine;
    const auto res = engine.check(inst.net);
    ASSERT_EQ(res.verdict, Verdict::Unsafe) << inst.net.name;
    ASSERT_TRUE(res.cex.has_value()) << inst.net.name;
    EXPECT_TRUE(mc::replayHitsBad(inst.net, *res.cex)) << inst.net.name;
    EXPECT_EQ(res.steps, depth) << inst.net.name;
    EXPECT_EQ(res.cex->length(), static_cast<std::size_t>(depth) + 1)
        << inst.net.name;
    EXPECT_GT(res.stats.count("reach.frontier_const_repl") +
                  res.stats.count("reach.frontier_merge_repl") +
                  res.stats.count("reach.frontier_odc_repl"),
              0)
        << inst.net.name;
  }
}

// A frontier simplified against the reached set may keep states of
// R_{j-1} that have no successor in the previous frontier. Hand-built
// frontiers of that kind, on a 3-bit counter s' = s + 1 with bad
// s = 3 ∧ i: F'_0 = {3}, F'_1 = {2,3}, F'_2 = {1,2,3}, F'_3 = {0..3}.
// State 3 of F'_1 lies in R_0 and steps to 4, outside F'_0. The descent
// into the cumulative sets R_j must still give a 3-step trace.
TEST(BackwardTrace, DescentTargetsCumulativeReachedSets) {
  mc::NetworkBuilder b("counter3-plus-one");
  std::vector<aig::Lit> s;
  for (int k = 0; k < 3; ++k) s.push_back(b.addLatch(false));
  const aig::Lit in = b.addInput();
  aig::Aig& g = b.aig();
  aig::Lit carry = aig::kTrue;
  for (int k = 0; k < 3; ++k) {
    b.setNextOf(s[k], g.mkXor(s[k], carry));
    carry = g.mkAnd(carry, s[k]);
  }
  b.setBad(g.mkAnd(g.mkAnd(s[0], s[1]), g.mkAnd(!s[2], in)));
  const mc::Network net = b.finish();

  aig::Aig archive;
  std::vector<aig::Lit> roots(net.next.begin(), net.next.end());
  roots.push_back(net.bad);
  const auto moved = archive.transferFrom(net.aig, roots);
  const std::vector<aig::Lit> archNext(moved.begin(), moved.end() - 1);
  const aig::Lit archBad = moved.back();

  auto set = [&](std::initializer_list<unsigned> values) {
    aig::Lit f = aig::kFalse;
    for (const unsigned v : values) {
      aig::Lit cube = aig::kTrue;
      for (std::size_t k = 0; k < 3; ++k)
        cube = archive.mkAnd(cube, archive.pi(net.stateVars[k]) ^
                                       (((v >> k) & 1u) == 0));
      f = archive.mkOr(f, cube);
    }
    return f;
  };
  auto holds = [&](aig::Lit f, unsigned v) {
    std::unordered_map<aig::VarId, bool> a;
    for (std::size_t k = 0; k < 3; ++k)
      a.emplace(net.stateVars[k], ((v >> k) & 1u) != 0);
    return archive.evaluate(f, a);
  };
  const std::vector<aig::Lit> frontiers = {set({3}), set({2, 3}),
                                           set({1, 2, 3}), set({0, 1, 2, 3})};
  std::vector<aig::Lit> reached = {frontiers[0]};
  for (std::size_t j = 1; j < frontiers.size(); ++j)
    reached.push_back(archive.mkOr(reached.back(), frontiers[j]));

  // The frontiers are ones frontier DC may commit: F'_j ∨ R_{j-1} equals
  // Pre(F'_{j-1}) ∨ R_{j-1} on every state, and init is first in F'_3.
  for (std::size_t j = 1; j < frontiers.size(); ++j)
    for (unsigned v = 0; v < 8; ++v)
      EXPECT_EQ(holds(frontiers[j], v) || holds(reached[j - 1], v),
                holds(frontiers[j - 1], (v + 1) % 8) ||
                    holds(reached[j - 1], v))
          << "j=" << j << " state " << v;
  EXPECT_TRUE(holds(frontiers[3], 0));
  EXPECT_FALSE(holds(reached[2], 0));
  // The scenario: 3 ∈ F'_1 ∩ R_0, and its successor 4 is not in F'_0.
  EXPECT_TRUE(holds(frontiers[1], 3) && holds(reached[0], 3));
  EXPECT_FALSE(holds(frontiers[0], 4));

  obs::Metrics stats;
  const mc::Trace trace = mc::detail::reconstructTrace(
      net, archive, archNext, archBad, reached, 3, stats);
  EXPECT_EQ(trace.length(), 4u);
  EXPECT_TRUE(mc::replayHitsBad(net, trace));
}

TEST(Hybrid, ResidualVariablesGoToEnumeration) {
  // With an impossible growth bound every input aborts, so the hybrid
  // engine must fall back to pure enumeration — and still be right.
  const auto inst = circuits::makeInstance("arbiter", 3, true);
  mc::HybridReachOptions opts;
  opts.quant.growthLimit = 0.0;
  opts.quant.growthSlack = 0;
  opts.quant.abortRetries = 0;
  mc::HybridReach engine(opts);
  const auto res = engine.check(inst.net);
  EXPECT_EQ(res.verdict, Verdict::Safe);
  EXPECT_GT(res.stats.count("allsat.enumerations"), 0);
  EXPECT_GT(res.stats.count("hybrid.residual_vars"), 0);
}

TEST(AllSat, EnumerationCountsAreBoundedByStateSpace) {
  const auto inst = circuits::makeInstance("ring", 4, true);
  mc::AllSatPreimageReach engine;
  const auto res = engine.check(inst.net);
  ASSERT_EQ(res.verdict, Verdict::Safe);
  // Each enumeration covers >= 1 state; the ring has 2^4 states total.
  EXPECT_LE(res.stats.count("allsat.enumerations"), 64);
}

}  // namespace
}  // namespace cbq
