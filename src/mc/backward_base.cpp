#include "mc/backward_base.hpp"

#include <utility>

#include "audit/audit.hpp"
#include "obs/tracer.hpp"
#include "sat/circuit_solver.hpp"
#include "synth/dc_simplify.hpp"

namespace cbq::mc::detail {

using aig::Lit;
using aig::VarId;

Trace reconstructTrace(const Network& net, aig::Aig& archive,
                       std::span<const Lit> archNext, Lit archBad,
                       std::span<const Lit> reached, int d,
                       obs::Metrics& stats) {
  std::vector<aig::VarSub> subst;
  subst.reserve(net.stateVars.size());
  for (std::size_t i = 0; i < net.stateVars.size(); ++i)
    subst.emplace_back(net.stateVars[i], archNext[i]);
  // R_0 ⊆ R_1 ⊆ ... share their cones, so one walk composes them all.
  const std::vector<Lit> targets =
      archive.compose(reached.first(static_cast<std::size_t>(d)), subst);

  Trace trace;
  std::unordered_map<VarId, bool> state = net.initAssignment();

  sat::CircuitSolver solver(archive);
  std::vector<Lit> assumptions;

  for (int t = 0; t <= d; ++t) {
    const Lit target =
        t < d ? targets[static_cast<std::size_t>(d - 1 - t)] : archBad;

    assumptions.clear();
    assumptions.push_back(target);
    for (const auto& [v, value] : state) {
      if (!archive.hasPi(v)) continue;
      assumptions.push_back(Lit(archive.piNodeOf(v), false) ^ !value);
    }
    if (solver.solve(assumptions, -1) != sat::Status::Sat) {
      // By construction this cannot happen; bail out with what we have —
      // the replay referee in the caller/test will flag the bad trace.
      break;
    }

    std::unordered_map<VarId, bool> inputs;
    for (const VarId v : net.inputVars)
      inputs.emplace(v, solver.modelOf(v));
    trace.inputs.push_back(inputs);

    if (t < d) {
      std::unordered_map<VarId, bool> a = state;
      for (const auto& [v, b] : inputs) a.insert_or_assign(v, b);
      std::unordered_map<VarId, bool> nextState;
      for (std::size_t i = 0; i < net.numLatches(); ++i)
        nextState.emplace(net.stateVars[i],
                          net.aig.evaluate(net.next[i], a));
      state = std::move(nextState);
    }
  }
  sat::exportEffort(stats, solver);
  return trace;
}

BackwardReachSession::BackwardReachSession(
    const Network& net, std::string engineName, const ReachLimits& limits,
    InputEliminator eliminate)
    : net_(&net),
      limits_(limits),
      eliminate_(std::move(eliminate)) {
  res_.engine = std::move(engineName);

  // Working manager: next-state functions + bad cone.
  std::vector<Lit> roots(net.next.begin(), net.next.end());
  roots.push_back(net.bad);
  auto moved = mgr_.transferFrom(net.aig, roots);
  nextL_.assign(moved.begin(), moved.end() - 1);
  badL_ = moved.back();
  subst_.reserve(nextL_.size());
  for (std::size_t i = 0; i < net.stateVars.size(); ++i)
    subst_.emplace_back(net.stateVars[i], nextL_[i]);

  // The run's persistent sweep session: every merge, DC, frontier and
  // fixpoint query of the run goes to its one solver. Its interrupt polls
  // whichever slice budget the current resume() is running under.
  session_.setInterrupt(
      [this] { return curBud_ != nullptr && curBud_->exhausted(); });

  // Archive manager: frontier history for counterexample reconstruction.
  auto movedA = archive_.transferFrom(net.aig, roots);
  archNext_.assign(movedA.begin(), movedA.end() - 1);
  archBad_ = movedA.back();

  initDense_ = net.initAssignmentDense();
}

Progress BackwardReachSession::snapshot(Verdict v, bool done) {
  Progress p;
  p.done = done;
  p.result = res_;
  p.result.verdict = v;
  p.result.steps = iter_;
  session_.exportStats(p.result.stats);
  p.bound = iter_;
  p.advanced = committedThisSlice_ > 0;
  {
    const Lit fr[] = {frontier_};
    p.frontierCone = mgr_.coneSize(fr);
  }
  p.effort =
      static_cast<std::uint64_t>(p.result.stats.count("sat.conflicts") +
                                 p.result.stats.count("sat.decisions") +
                                 p.result.stats.count("sat.propagations"));
  p.result.stats.high("mem.aig_peak_nodes",
                      static_cast<double>(mgr_.numNodes()));
  return p;
}

void BackwardReachSession::commitFrontier(Lit frontier) {
  frontier_ = frontier;
  reached_ = mgr_.mkOr(reached_, frontier);
  // Only the frontier's cone moves to the archive; R_j is one OR over the
  // archived R_{j-1}.
  const Lit fr[] = {frontier_};
  const Lit arch = archive_.transferFrom(mgr_, fr).front();
  reachedArch_.push_back(archive_.mkOr(reachedArch_.back(), arch));
  res_.stats.high("reach.max_frontier_cone",
                  static_cast<double>(mgr_.coneSize(fr)));
  ++committedThisSlice_;
}

void BackwardReachSession::compact() {
  CBQ_OBS_SPAN("engine", "compact");
  // Re-strash every live cone into a fresh manager. This drops the
  // scratch nodes that cofactoring and sweeping leave behind AND
  // re-applies the construction rewrite rules across the whole live set;
  // on the generated suite that shrinks state-set cones enough that
  // compacting after every committed frontier beats hoarding nodes. The
  // transfer map lets the sweep session carry its proven/refuted pair
  // cache across the NodeId change, so only the solver restarts.
  std::vector<Lit> live{reached_, frontier_, badL_};
  live.insert(live.end(), nextL_.begin(), nextL_.end());
  aig::Aig fresh;
  std::vector<std::pair<aig::NodeId, Lit>> xfer;
  auto mv = fresh.transferFrom(mgr_, live, xfer);
  reached_ = mv[0];
  frontier_ = mv[1];
  badL_ = mv[2];
  for (std::size_t i = 0; i < nextL_.size(); ++i) nextL_[i] = mv[3 + i];
  mgr_ = std::move(fresh);
  subst_.clear();
  for (std::size_t i = 0; i < net_->stateVars.size(); ++i)
    subst_.emplace_back(net_->stateVars[i], nextL_[i]);
  session_.rebindRemapped(mgr_, xfer);
  // The compacted manager plus the sweep session's rebuilt solver — a
  // dangling arena literal here would poison every later query.
  CBQ_AUDIT_CHECK("reach.compact", audit::auditAig(mgr_));
  CBQ_AUDIT_CHECK("reach.compact.session",
                  audit::auditSweepContext(session_, mgr_));
  res_.stats.add("reach.compactions");
}

Progress BackwardReachSession::doResume(const portfolio::Budget& budget) {
  const auto bud = sliceBudget(budget, limits_.timeLimitSeconds);
  if (!bud) return snapshot(Verdict::Unknown, true);  // own limit spent
  curBud_ = &*bud;
  Progress p = run(*bud);
  curBud_ = nullptr;
  // Session pause: everything the next resume rebuilds from — the
  // manager and the persistent SAT session — must be coherent now.
  CBQ_AUDIT_CHECK("reach.pause", audit::auditAig(mgr_));
  CBQ_AUDIT_CHECK("reach.pause.session",
                  audit::auditSweepContext(session_, mgr_));
  return p;
}

Progress BackwardReachSession::run(const portfolio::Budget& bud) {
  committedThisSlice_ = 0;
  for (;;) {
    if (bud.exhausted()) return snapshot(Verdict::Unknown, false);
    switch (phase_) {
      case Phase::Init: {
        CBQ_OBS_SPAN("engine", "init");
        // Frontier 0: B = ∃i . bad(s, i).
        PreImageRequest req{&mgr_, badL_, net_, &res_.stats, &bud,
                            &session_};
        const auto b0 = eliminate_(req);
        if (!b0) {
          if (bud.exhausted())  // interrupted: retry next resume
            return snapshot(Verdict::Unknown, false);
          return snapshot(Verdict::Unknown, true);
        }
        frontier_ = *b0;
        reached_ = frontier_;
        {
          const Lit fr[] = {frontier_};
          reachedArch_.push_back(archive_.transferFrom(mgr_, fr).front());
        }
        phase_ = mgr_.evaluate(frontier_, initDense_) ? Phase::Trace
                                                      : Phase::Guard;
        break;
      }
      case Phase::Guard: {
        if (iter_ >= limits_.maxIterations)
          return snapshot(Verdict::Unknown, true);
        const Lit rr[] = {reached_};
        const std::size_t sz = mgr_.coneSize(rr);
        res_.stats.high("reach.max_reached_cone", static_cast<double>(sz));
        if (sz > kHardConeLimit || bud.nodesExceeded(sz))
          return snapshot(Verdict::Unknown, true);
        ++iter_;
        phase_ = Phase::Pre;
        break;
      }
      case Phase::Pre: {
        CBQ_OBS_SPAN("engine", "pre-image");
        // Pre-image by substitution (§3 in-lining), then input
        // elimination. A pause retries from here: compose is strashed, so
        // the retry starts from identical inputs and stays deterministic.
        PreImageRequest req{&mgr_, mgr_.compose(frontier_, subst_), net_,
                            &res_.stats, &bud, &session_};
        const auto q = eliminate_(req);
        if (!q) {
          if (bud.exhausted()) return snapshot(Verdict::Unknown, false);
          return snapshot(Verdict::Unknown, true);
        }
        pre_ = *q;
        phase_ = Phase::Fix;
        break;
      }
      case Phase::Fix: {
        CBQ_OBS_SPAN("engine", "fixpoint");
        // Frontier DC decides the fixpoint: pre_ simplified with reached_
        // as the don't-care set. Its postcondition reached ∨ F' ≡
        // reached ∨ pre makes F' = 0 a proof of pre ⊆ reached (Safe), and
        // a simulated care pattern with pre ∧ ¬reached shows there is no
        // fixpoint. Only when neither is known does one implication query
        // decide. Either way F' replaces pre_ as the committed frontier,
        // so the next pre-image starts from the smaller cone. Where the
        // session's DC tracker shows DC not shrinking cones (multipliers:
        // without this gate mult8_unsafe runs out of 60 s instead of
        // taking ~2.5 s), pre_ is committed as is after that query.
        res_.stats.add("reach.fixpoint_checks");
        synth::DcResult dc{pre_};
        if (session_.shouldAttemptDc()) {
          synth::DcOptions dcOpts;
          dcOpts.context = &session_;
          dcOpts.interrupt = [&bud] { return bud.exhausted(); };
          dc = synth::dcSimplify(mgr_, reached_, pre_, dcOpts);
        } else {
          res_.stats.add("reach.frontier_skipped_feedback");
        }
        res_.stats.add("reach.frontier_const_repl",
                       static_cast<std::int64_t>(dc.stats.constReplacements));
        res_.stats.add("reach.frontier_merge_repl",
                       static_cast<std::int64_t>(dc.stats.mergeReplacements));
        res_.stats.add("reach.frontier_odc_repl",
                       static_cast<std::int64_t>(dc.stats.odcReplacements));
        res_.stats.add("reach.frontier_sat_checks",
                       static_cast<std::int64_t>(dc.stats.satChecks));
        if (dc.target.isFalse()) return snapshot(Verdict::Safe, true);
        if (!dc.escapes) {
          res_.stats.add("reach.fixpoint_sat_fallbacks");
          session_.bind(mgr_);
          const Lit fpRoots[] = {pre_, reached_};
          session_.focusOn(fpRoots);
          const sat::Verdict fp = session_.checkImplies(pre_, reached_);
          if (fp == sat::Verdict::Holds) return snapshot(Verdict::Safe, true);
          if (fp == sat::Verdict::Unknown)  // interrupted mid-solve: retry
            return snapshot(Verdict::Unknown, false);
        }
        commitFrontier(dc.target);
        if (mgr_.evaluate(frontier_, initDense_)) {
          phase_ = Phase::Trace;
        } else {
          compact();
          phase_ = Phase::Guard;
        }
        break;
      }
      case Phase::Trace: {
        CBQ_OBS_SPAN("engine", "trace");
        res_.cex = reconstructTrace(*net_, archive_, archNext_, archBad_,
                                    reachedArch_, iter_, res_.stats);
        res_.stats.set("reach.iterations", iter_);
        return snapshot(Verdict::Unsafe, true);
      }
    }
  }
}

}  // namespace cbq::mc::detail
