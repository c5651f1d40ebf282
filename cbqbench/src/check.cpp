#include "check.hpp"

#include <exception>
#include <filesystem>
#include <memory>

#include "circuits/io.hpp"
#include "mc/engines.hpp"
#include "obs/tracer.hpp"
#include "prep/pipeline.hpp"
#include "util/timer.hpp"

namespace cbqbench {

using cbq::mc::Verdict;

namespace {

void runSequential(const Problem& problem, const cbq::mc::Network& net,
                   double timeLimitSeconds, Outcome& out,
                   cbq::mc::CheckResult& res) {
  const cbq::portfolio::Budget budget(timeLimitSeconds);
  cbq::util::Timer t;
  cbq::prep::PreparedProblem prepared;
  {
    CBQ_OBS_SPAN("bench", "prep");
    prepared = cbq::prep::Pipeline().run(net, budget);
  }
  out.stages.prep = t.seconds();
  out.prepStats = prepared.stats;
  out.andsBefore = prepared.andsBefore;
  out.andsAfter = prepared.problem(net).aig.numAnds();
  if (prepared.decided.has_value()) {
    out.decidedByPrep = true;
    res.verdict = *prepared.decided;
    res.engine = "prep";
    res.cex = prepared.decidedCex;
    return;
  }
  const auto engine = cbq::mc::makeEngine(problem.engine);
  if (!engine) throw std::invalid_argument("unknown engine " + problem.engine);
  t.restart();
  std::unique_ptr<cbq::mc::Session> session;
  {
    CBQ_OBS_SPAN("bench", "start");
    session = engine->start(prepared.problem(net));
  }
  out.stages.start = t.seconds();
  {
    CBQ_OBS_SPAN("bench", "resume");
    for (;;) {
      cbq::mc::Progress p = session->resume(budget);
      if (p.done || budget.exhausted()) {
        res = std::move(p.result);
        break;
      }
    }
    session.reset();
  }
  if (res.verdict == Verdict::Unsafe && res.cex.has_value()) {
    t.restart();
    CBQ_OBS_SPAN("bench", "lift");
    res.cex = prepared.lifter().lift(std::move(*res.cex));
    out.stages.lift = t.seconds();
  }
}

void runPortfolio(const cbq::mc::Network& net, double timeLimitSeconds,
                  Outcome& out, cbq::mc::CheckResult& res) {
  cbq::portfolio::PortfolioOptions opts;
  opts.schedule = cbq::portfolio::ScheduleMode::Slice;
  opts.timeLimitSeconds = timeLimitSeconds;
  cbq::portfolio::PortfolioResult pr;
  {
    CBQ_OBS_SPAN("bench", "portfolio");
    pr = cbq::portfolio::PortfolioRunner(opts).run(net);
  }
  out.stages.prep = pr.prep.seconds;
  out.prepStats = pr.best.stats;  // the pipeline's registry is merged here
  out.andsBefore = pr.prep.andsBefore;
  out.andsAfter = pr.prep.andsAfter;
  out.decidedByPrep = pr.prep.decided;
  for (const auto& run : pr.runs) out.engineStats.merge(run.stats);
  out.runs = std::move(pr.runs);
  res = std::move(pr.best);
}

}  // namespace

Outcome checkProblem(const Problem& problem, const std::string& path,
                     double timeLimitSeconds) {
  Outcome out;
  out.fileBytes = std::filesystem::file_size(path);
  cbq::mc::Network net;
  cbq::mc::CheckResult res;
  cbq::util::Timer total;
  try {
    cbq::util::Timer t;
    {
      CBQ_OBS_SPAN("bench", "read");
      net = cbq::circuits::readCircuitFile(path);
    }
    out.stages.read = t.seconds();
    if (problem.engine.empty())
      runPortfolio(net, timeLimitSeconds, out, res);
    else
      runSequential(problem, net, timeLimitSeconds, out, res);
    t.restart();
    {
      CBQ_OBS_SPAN("bench", "referee");
      cbq::prep::demoteUnreplayableCex(net, res);
    }
    out.stages.referee = t.seconds();
  } catch (const std::exception& e) {
    // An engine failure is an unsolved problem, never a crash.
    out.error = e.what();
    res.verdict = Verdict::Unknown;
    res.cex.reset();
  }
  out.seconds = total.seconds();

  out.verdict = res.verdict;
  out.steps = res.steps;
  // The portfolio's per-engine counters are already in engineStats.
  if (!problem.engine.empty()) out.engineStats.merge(res.stats);
  // The benchmark's own referee: every UNSAFE verdict must carry a trace
  // that replays on the original network.
  if (out.verdict == Verdict::Unsafe)
    out.traceReplays =
        res.cex.has_value() && cbq::mc::replayHitsBad(net, *res.cex);
  return out;
}

double portfolioStartSeconds(const std::string& path) {
  const cbq::mc::Network net = cbq::circuits::readCircuitFile(path);
  const cbq::prep::PreparedProblem prepared = cbq::prep::Pipeline().run(net);
  if (prepared.decided.has_value()) return 0.0;
  double seconds = 0.0;
  for (const std::string& name : cbq::portfolio::defaultPortfolio()) {
    const auto engine = cbq::mc::makeEngine(name);
    cbq::util::Timer t;
    auto session = engine->start(prepared.problem(net));
    seconds += t.seconds();
  }
  return seconds;
}

}  // namespace cbqbench
