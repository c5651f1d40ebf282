// cbqbench — the repository benchmark program.
//
//   cbqbench run --workload NAME --seed N --seconds S --trace 0|1
//                --workdir DIR
//       Writes the workload's pool of circuits as AIGER into DIR (timed
//       as setup), draws the instance list from the seed, then checks it
//       in a closed loop — one problem at a time, one process, one thread
//       — pass after pass until S seconds have gone (at least one pass).
//       Prints each metric with its unit, then one JSON result line.
//       --trace 0 reports the end-to-end metrics; --trace 1 checks each
//       problem untraced and then traced, and reports the per-layer
//       metrics.
//       Exits 1 on a wrong verdict or a counterexample that does not
//       replay on the original circuit.
//   cbqbench list --workload NAME --seed N
//       Prints the instance list, one problem per line.
//   cbqbench pool --workload NAME --workdir DIR
//       Checks every pool member five times and prints its median time,
//       to keep the strata near-equal in cost.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "check.hpp"
#include "circuits/io.hpp"
#include "obs/memory.hpp"
#include "obs/tracer.hpp"
#include "span_fold.hpp"
#include "stats.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;

namespace cbqbench {
namespace {

/// The one setting the benchmark fixes: prep plus engines per problem.
constexpr double kTimeLimitSeconds = 20.0;
/// Setup repeats at least kSetupMinRepeats times and, while it has taken
/// under a second, up to kSetupMaxRepeats; setup_s is the median.
constexpr int kSetupMinRepeats = 3;
constexpr int kSetupMaxRepeats = 25;
/// Per-thread span ring of the traced run; grown (and the problem rerun)
/// until a problem's trace drops nothing.
constexpr std::size_t kInitialTraceCapacity = std::size_t{1} << 20;
constexpr std::size_t kMaxTraceCapacity = std::size_t{1} << 22;

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
};

Args parseArgs(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing command");
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--workdir") {
      a.workdir = val;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  return a;
}

void writeCircuits(const std::vector<Problem>& circuits, const fs::path& dir) {
  fs::create_directories(dir);
  for (const Problem& p : circuits) {
    const cbq::mc::Network net = p.build();
    std::ofstream out(dir / p.fileName(),
                      p.binary ? std::ios::binary : std::ios::out);
    if (p.binary)
      cbq::circuits::writeAigBinary(net, out);
    else
      cbq::circuits::writeAag(net, out);
    out.close();
    if (!out) throw std::runtime_error("cannot write " + p.fileName());
  }
}

/// Generates and writes `circuits` in a child process, so the generator's
/// memory never shows in the checked path's peak RSS. Returns the seconds
/// the child spent, sent back through a pipe.
double timedSetup(const std::vector<Problem>& circuits, const fs::path& dir) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const cbq::util::Timer t;
      writeCircuits(circuits, dir);
      const double seconds = t.seconds();
      if (write(fds[1], &seconds, sizeof seconds) != sizeof seconds) code = 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cbqbench: setup: %s\n", e.what());
      code = 1;
    }
    std::fflush(stderr);
    _exit(code);
  }
  close(fds[1]);
  double seconds = 0.0;
  const bool got = read(fds[0], &seconds, sizeof seconds) == sizeof seconds;
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("setup failed");
  return seconds;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Tallies correctness over every check of a run.
struct Tally {
  std::size_t attempted = 0, unsolved = 0, wrong = 0, badTraces = 0;

  void add(const Problem& p, const Outcome& o) {
    ++attempted;
    if (!o.solved()) {
      ++unsolved;
      std::fprintf(stderr, "cbqbench: %s UNSOLVED%s%s\n", p.label().c_str(),
                   o.error.empty() ? "" : ": ", o.error.c_str());
    } else if (o.verdict != p.expected()) {
      ++wrong;
      std::fprintf(stderr, "cbqbench: %s WRONG verdict %s\n",
                   p.label().c_str(), cbq::mc::toString(o.verdict));
    }
    if (!o.traceReplays) {
      ++badTraces;
      std::fprintf(stderr, "cbqbench: %s counterexample does not replay\n",
                   p.label().c_str());
    }
  }
  [[nodiscard]] bool correct() const { return wrong == 0 && badTraces == 0; }
  [[nodiscard]] std::size_t failed() const {
    return unsolved + wrong + badTraces;
  }
};

void printResult(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (!validMetricName(m.name))
      throw std::logic_error("invalid metric name " + m.name);
    std::printf("  %-34s %16s %s\n", m.name.c_str(),
                formatNumber(m.value).c_str(), m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += tally.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            formatNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ----- end-to-end run ----------------------------------------------------------

int runTimed(const Args& args, const std::vector<Problem>& list,
             const fs::path& dir, double setupSeconds) {
  Tally tally;
  std::vector<double> samplesMs;
  std::vector<double> passTotals;
  std::map<std::string, std::vector<double>> perLabel;
  double peakRssMb = 0.0;
  const cbq::util::Timer run;
  do {
    double passTotal = 0.0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const Outcome o =
          checkProblem(list[i], dir / list[i].fileName(), kTimeLimitSeconds);
      tally.add(list[i], o);
      samplesMs.push_back(o.seconds * 1e3);
      perLabel[list[i].label()].push_back(o.seconds * 1e3);
      passTotal += o.seconds;
    }
    passTotals.push_back(passTotal);
    // Peak RSS over the first pass: later passes repeat the same work, and
    // how many fit into --seconds depends on the host's speed.
    if (passTotals.size() == 1)
      peakRssMb =
          static_cast<double>(cbq::obs::peakRssBytes()) / (1024.0 * 1024.0);
  } while (run.seconds() < args.seconds);

  std::printf("workload %s, seed %llu: %zu problems per pass, %zu passes, "
              "%zu samples\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), list.size(),
              passTotals.size(), samplesMs.size());
  std::printf("  pass totals (s):");
  for (const double t : passTotals) std::printf(" %.3f", t);
  std::printf("\n");
  for (const auto& [label, ms] : perLabel)
    std::printf("  %-34s %10.2f ms median of %zu\n", label.c_str(),
                median(ms), ms.size());
  if (const auto tail = tailPercentile(samplesMs))
    std::printf("  tail_ms (p%g, %zu samples beyond) %.3f ms\n",
                tail->percentile, tail->beyond, tail->value);
  else
    std::printf("  tail_ms omitted: fewer than 10 samples beyond p90\n");
  std::printf("  wrong verdicts %zu, counterexamples not replaying %zu, "
              "unsolved %zu\n",
              tally.wrong, tally.badTraces, tally.unsolved);

  const std::vector<Metric> metrics = {
      {"wall_s", mean(passTotals), "s"},
      {"geomean_ms", geomean(samplesMs), "ms"},
      {"p50_ms", median(samplesMs), "ms"},
      {"solved_frac",
       ratio(static_cast<double>(tally.attempted - tally.unsolved),
             static_cast<double>(tally.attempted)),
       "frac"},
      {"peak_rss_mb", peakRssMb, "MB"},
      {"setup_s", setupSeconds, "s"},
  };
  printResult(tally, metrics);
  return tally.correct() ? 0 : 1;
}

// ----- traced run --------------------------------------------------------------

/// Sums of one traced run, folded into per-layer metrics at the end.
struct LayerTotals {
  std::size_t problems = 0;
  double untracedSeconds = 0.0, tracedSeconds = 0.0;
  StageTimes stages;
  double startSeconds = 0.0;  ///< session starts (see portfolioStartSeconds)
  double fileBytes = 0.0;
  double andsBefore = 0.0, andsAfter = 0.0;
  std::size_t decided = 0;
  std::map<std::string, double> passSeconds;
  double steps = 0.0, iterations = 0.0;
  cbq::obs::Metrics counters;
  double maxReachedCone = 0.0, bddReachedSize = 0.0;
  std::map<std::string, double> engineSeconds;
  std::map<std::string, double> wins;
  double winnerSeconds = 0.0;
  double slices = 0.0;
  SpanFold fold;
  std::size_t dropped = 0;  ///< of the folded traces (see runTraced)

  void add(const Problem& p, const Outcome& o) {
    ++problems;
    stages.read += o.stages.read;
    stages.prep += o.stages.prep;
    stages.start += o.stages.start;
    stages.lift += o.stages.lift;
    stages.referee += o.stages.referee;
    fileBytes += static_cast<double>(o.fileBytes);
    andsBefore += static_cast<double>(o.andsBefore);
    andsAfter += static_cast<double>(o.andsAfter);
    if (o.decidedByPrep) ++decided;
    for (const char* pass : {"coi", "const", "sweep", "latchcorr"})
      passSeconds[pass] +=
          o.prepStats.histogram(std::string("prep.") + pass + ".seconds").sum;
    steps += o.steps;
    iterations += o.engineStats.gauge("reach.iterations");
    counters.merge(o.engineStats);
    maxReachedCone = std::max(
        maxReachedCone, o.engineStats.gauge("reach.max_reached_cone"));
    bddReachedSize = std::max(bddReachedSize,
                              o.engineStats.gauge("bdd.reached_size"));
    if (p.engine.empty()) {
      for (const auto& r : o.runs) {
        engineSeconds[r.engine] += r.seconds;
        slices += r.slices;
        if (r.winner) {
          wins[r.engine] += 1.0;
          winnerSeconds += r.seconds;
        }
      }
      if (o.decidedByPrep) wins["prep"] += 1.0;
    }
  }
};

std::vector<Metric> layerMetrics(const LayerTotals& t, double passes) {
  const auto perPass = [&](double v) { return v / passes; };
  const auto secs = [&](const std::string& key, bool phase) {
    const SpanTotals s = t.fold.at(key);
    return perPass(static_cast<double>(phase ? s.phaseNs : s.selfNs) * 1e-9);
  };
  const auto passSeconds = [&](const char* pass) {
    return perPass(t.passSeconds.at(pass));
  };
  const auto count = [&](const char* name) {
    return perPass(static_cast<double>(t.counters.count(name)));
  };
  const double resume =
      perPass(static_cast<double>(t.fold.containerNs) * 1e-9);
  const double steps = perPass(t.steps);
  const double readS = perPass(t.stages.read);
  const double readMb = perPass(t.fileBytes) / (1024.0 * 1024.0);
  double engineTotal = 0.0;
  for (const auto& [e, s] : t.engineSeconds) engineTotal += s;
  const double dcChecks = count("opt.sat_checks");
  const double lookups = count("sweep.cache_lookups");
  const double coneBefore = count("quant.cone_before_total");

  std::vector<Metric> m = {
      {"bench.problems", perPass(static_cast<double>(t.problems)), "count"},
      {"circuits.read_s", readS, "s"},
      {"circuits.read_mb", readMb, "MB"},
      {"circuits.read_mb_s", ratio(readMb, readS), "MB/s"},
      {"prep.run_s", perPass(t.stages.prep), "s"},
      {"prep.coi_s", passSeconds("coi"), "s"},
      {"prep.const_s", passSeconds("const"), "s"},
      {"prep.sweep_s", passSeconds("sweep"), "s"},
      {"prep.latchcorr_s", passSeconds("latchcorr"), "s"},
      {"prep.ands_before", perPass(t.andsBefore), "count"},
      {"prep.ands_kept_frac", ratio(t.andsAfter, t.andsBefore), "frac"},
      {"prep.decided_frac",
       ratio(static_cast<double>(t.decided), static_cast<double>(t.problems)),
       "frac"},
      {"mc.start_s", perPass(t.stages.start + t.startSeconds), "s"},
      {"mc.resume_s", resume, "s"},
      {"mc.steps", steps, "count"},
      {"mc.ms_per_step", ratio(resume * 1e3, steps), "ms"},
      {"mc.lift_s", perPass(t.stages.lift), "s"},
      {"mc.referee_s", perPass(t.stages.referee), "s"},
      {"reach.init_self_s", secs("engine/init", true), "s"},
      {"reach.preimage_self_s", secs("engine/pre-image", true), "s"},
      {"reach.fixpoint_self_s", secs("engine/fixpoint", true), "s"},
      {"reach.compact_self_s", secs("engine/compact", true), "s"},
      {"reach.trace_self_s", secs("engine/trace", true), "s"},
      {"reach.unattributed_s",
       perPass(static_cast<double>(t.fold.unattributedNs) * 1e-9), "s"},
      {"reach.iterations", perPass(t.iterations), "count"},
      {"reach.fixpoint_checks", count("reach.fixpoint_checks"), "count"},
      {"reach.compactions", count("reach.compactions"), "count"},
      {"reach.max_reached_cone", t.maxReachedCone, "count"},
      {"quant.eliminate_self_s", secs("quant/eliminate-var", false), "s"},
      {"quant.vars_attempted", count("quant.vars_attempted"), "count"},
      {"quant.vars_substituted", count("quant.vars_substituted"), "count"},
      {"quant.vars_aborted", count("quant.vars_aborted"), "count"},
      {"quant.cone_before_total", coneBefore, "count"},
      {"quant.cone_growth", ratio(count("quant.cone_after_total"), coneBefore),
       "frac"},
      {"sweep.self_s",
       secs("sweep/sweep", false) + secs("sweep/refine-round", false), "s"},
      {"sweep.merge_sat_checks", count("merge.sat_checks"), "count"},
      {"sweep.cache_lookups", lookups, "count"},
      {"sweep.cache_hit_frac",
       ratio(count("sweep.cache_hits_proven") +
                 count("sweep.cache_hits_refuted"),
             lookups),
       "frac"},
      {"sweep.cache_remaps", count("sweep.cache_remaps"), "count"},
      {"sweep.session_recycles", count("sweep.session_recycles"), "count"},
      {"synth.dc_sat_checks", dcChecks, "count"},
      {"synth.repl_per_check",
       ratio(count("opt.const_repl") + count("opt.merge_repl") +
                 count("opt.odc_repl"),
             dcChecks),
       "frac"},
      {"synth.skipped_feedback", count("opt.skipped_feedback"), "count"},
      {"sat.solve_self_s",
       secs("sat/solve", false) + secs("sat.circuit/solve", false), "s"},
      {"sat.solves",
       perPass(static_cast<double>(t.fold.at("sat/solve").count +
                                   t.fold.at("sat.circuit/solve").count)),
       "count"},
      {"sat.conflicts", count("sat.conflicts"), "count"},
      {"sat.decisions", count("sat.decisions"), "count"},
      {"sat.propagations", count("sat.propagations"), "count"},
      {"bounded.bmc_bound_self_s", secs("engine/bmc-bound", true), "s"},
      {"bounded.ind_base_self_s", secs("engine/ind-base", true), "s"},
      {"bounded.ind_step_self_s", secs("engine/ind-step", true), "s"},
      {"bmc.solves", count("bmc.solves"), "count"},
      {"ind.step_solves", count("ind.step_solves"), "count"},
      {"bdd.preimage_self_s", secs("bdd/pre-image", true), "s"},
      {"bdd.reached_size", t.bddReachedSize, "count"},
  };
  const auto winFrac = [&](const std::string& engine) {
    const auto it = t.wins.find(engine);
    return ratio(it == t.wins.end() ? 0.0 : it->second,
                 static_cast<double>(t.problems));
  };
  for (const std::string& e : cbq::portfolio::defaultPortfolio()) {
    const auto it = t.engineSeconds.find(e);
    m.push_back({"portfolio.engine_s." + e,
                 perPass(it == t.engineSeconds.end() ? 0.0 : it->second),
                 "s"});
    m.push_back({"portfolio.win_frac." + e, winFrac(e), "frac"});
  }
  m.push_back({"portfolio.win_frac.prep", winFrac("prep"), "frac"});
  m.push_back({"portfolio.engine_s_total", perPass(engineTotal), "s"});
  m.push_back({"portfolio.useful_frac", ratio(t.winnerSeconds, engineTotal),
               "frac"});
  m.push_back({"portfolio.slices", perPass(t.slices), "count"});
  m.push_back({"trace.untraced_s", perPass(t.untracedSeconds), "s"});
  m.push_back({"trace.overhead_frac",
               ratio(t.tracedSeconds, t.untracedSeconds) - 1.0, "frac"});
  m.push_back({"trace.spans", perPass(static_cast<double>(t.fold.spans)),
               "count"});
  m.push_back({"trace.dropped", static_cast<double>(t.dropped), "count"});
  return m;
}

int runTraced(const Args& args, const std::vector<Problem>& list,
              const fs::path& dir) {
  Tally tally;
  LayerTotals totals;
  std::size_t capacity = kInitialTraceCapacity;
  std::size_t passes = 0;
  const cbq::util::Timer run;
  do {
    for (std::size_t i = 0; i < list.size(); ++i) {
      const std::string path = dir / list[i].fileName();
      const Outcome plain = checkProblem(list[i], path, kTimeLimitSeconds);
      tally.add(list[i], plain);
      for (;;) {
        cbq::obs::enableTracing(capacity);
        const Outcome traced =
            checkProblem(list[i], path, kTimeLimitSeconds);
        cbq::obs::disableTracing();
        const std::size_t dropped = cbq::obs::traceStats().dropped;
        if (dropped > 0) {
          // A lossy trace would misattribute time: rerun with a ring
          // large enough to hold the whole problem.
          capacity *= 4;
          if (capacity > kMaxTraceCapacity) {
            std::fprintf(stderr,
                         "cbqbench: %s drops spans even with a %zu-span "
                         "ring; no layer table\n",
                         list[i].label().c_str(), capacity / 4);
            return 1;
          }
          continue;
        }
        totals.dropped += dropped;
        SpanFolder folder;
        cbq::obs::writeChromeTrace(folder);
        totals.fold.merge(folder.finish());
        cbq::obs::clearTrace();
        tally.add(list[i], traced);
        totals.add(list[i], traced);
        totals.untracedSeconds += plain.seconds;
        totals.tracedSeconds += traced.seconds;
        break;
      }
      if (list[i].engine.empty())
        totals.startSeconds += portfolioStartSeconds(path);
    }
    ++passes;
  } while (run.seconds() < args.seconds);

  std::printf("workload %s, seed %llu: traced %zu passes of %zu problems, "
              "span ring %zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), passes, list.size(),
              capacity);
  printResult(tally, layerMetrics(totals, static_cast<double>(passes)));
  return tally.correct() ? 0 : 1;
}

// ----- commands ------------------------------------------------------------------

const Workload& workloadOf(const Args& args) {
  const Workload* w = findWorkload(args.workload);
  if (w == nullptr) {
    std::string known;
    for (const Workload& k : workloads()) known += " " + k.name;
    throw std::invalid_argument("unknown workload '" + args.workload +
                                "' (known:" + known + ")");
  }
  return *w;
}

int cmdRun(const Args& args) {
  if (args.workdir.empty()) throw std::invalid_argument("--workdir required");
  const Workload& w = workloadOf(args);
  const std::vector<Problem> list = drawInstances(w, args.seed);
  const fs::path dir = args.workdir;
  fs::remove_all(dir);
  // The whole pool is written, so setup costs the same for every seed.
  const std::vector<Problem> circuits = poolCircuits(w);
  std::vector<double> setups;
  const cbq::util::Timer setupTimer;
  while (setups.size() < kSetupMinRepeats ||
         (setups.size() < kSetupMaxRepeats && setupTimer.seconds() < 1.0))
    setups.push_back(timedSetup(circuits, dir));
  return args.trace ? runTraced(args, list, dir)
                    : runTimed(args, list, dir, median(setups));
}

int cmdList(const Args& args) {
  for (const Problem& p : drawInstances(workloadOf(args), args.seed))
    std::printf("%s\n", p.label().c_str());
  return 0;
}

int cmdPool(const Args& args) {
  if (args.workdir.empty()) throw std::invalid_argument("--workdir required");
  const fs::path dir = args.workdir;
  const Workload& w = workloadOf(args);
  fs::remove_all(dir);
  timedSetup(poolCircuits(w), dir);
  std::size_t stratum = 0;
  for (const Stratum& s : w.strata) {
    for (std::size_t i = 0; i < s.pool.size(); ++i) {
      std::vector<double> ms;
      Outcome o;
      for (int r = 0; r < 5; ++r) {
        o = checkProblem(s.pool[i], dir / s.pool[i].fileName(),
                         kTimeLimitSeconds);
        ms.push_back(o.seconds * 1e3);
      }
      std::printf("stratum %zu  %-34s %-8s %10.3f ms median of 5  steps %d\n",
                  stratum, s.pool[i].label().c_str(),
                  cbq::mc::toString(o.verdict), median(ms), o.steps);
      std::fflush(stdout);
    }
    ++stratum;
  }
  return 0;
}

}  // namespace
}  // namespace cbqbench

int main(int argc, char** argv) {
  try {
    const cbqbench::Args args = cbqbench::parseArgs(argc, argv);
    if (args.command == "run") return cbqbench::cmdRun(args);
    if (args.command == "list") return cbqbench::cmdList(args);
    if (args.command == "pool") return cbqbench::cmdPool(args);
    throw std::invalid_argument("unknown command " + args.command);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cbqbench: %s\n", e.what());
    return 2;
  }
}
