#include "workloads.hpp"

#include <set>
#include <utility>

#include "circuits/suite.hpp"
#include "util/random.hpp"

namespace cbqbench {

std::string Problem::label() const {
  std::string s = engine.empty() ? "portfolio" : engine;
  s += ':';
  s += family;
  if (width > 0) s += std::to_string(width);
  s += safe ? "_safe" : "_unsafe";
  return s;
}

std::string Problem::fileName() const {
  std::string s = family;
  if (width > 0) s += std::to_string(width);
  s += safe ? "_safe" : "_unsafe";
  s += binary ? ".aig" : ".aag";
  return s;
}

cbq::mc::Network Problem::build() const {
  return cbq::circuits::makeInstance(family, width, safe).net;
}

namespace {

Problem seq(std::string engine, std::string family, int width, bool safe,
            bool binary = false) {
  return Problem{std::move(family), width, safe, std::move(engine), binary};
}

Problem slice(std::string family, int width, bool safe) {
  return Problem{std::move(family), width, safe, "", false};
}

std::vector<Workload> buildWorkloads() {
  std::vector<Workload> all;

  // Hundreds of pre-images per problem (127-255 backward steps): quant,
  // sweep, DC simplification, SAT, fixpoint checks, compaction and trace
  // reconstruction do nearly all the work. Strata of circuits whose times
  // agree within 2% (medians of five checks on a 4-core x86 host: ~1.6 s
  // and ~1.9 s); the odd list length keeps the median problem off the gap
  // between them.
  const Workload deepReach{"deep-reach",
                           {{{seq("cbq-reach", "counter", 8, false),
                              seq("cbq-reach", "haystack", 8, false)},
                             1},
                            {{seq("cbq-reach", "evencount", 9, false),
                              seq("cbq-reach", "queue", 7, false)},
                             2}}};

  // The unrolling engines: BMC on 127-frame counterexamples (~0.8 s),
  // k-induction on 63-frame ones (~1.4 s), and k-induction proving SAFE
  // circuits (~45 ms; the arbiter needs k = 16, the ring k = 1 on a wide
  // frame). The Unroller and the CNF solver do all the work.
  const Workload bounded{"bounded",
                         {{{seq("bmc", "haystack", 7, false),
                            seq("bmc", "counter", 7, false),
                            seq("bmc", "evencount", 8, false)},
                           2},
                          {{seq("k-induction", "counter", 6, false),
                            seq("k-induction", "haystack", 6, false),
                            seq("k-induction", "evencount", 7, false)},
                           2},
                          {{seq("k-induction", "arbiter", 16, true),
                            seq("k-induction", "ring", 40, true)},
                           2}}};

  // Both of the above in one list (nine problems a pass; the median one
  // is a k-induction problem). This is the gated workload: on a shared
  // host one 45 s run of both is steadier than two 20 s runs.
  Workload deepSeq{"deep-seq", deepReach.strata};
  deepSeq.strata.insert(deepSeq.strata.end(), bounded.strata.begin(),
                        bounded.strata.end());
  all.push_back(deepSeq);
  all.push_back(deepReach);
  all.push_back(bounded);

  // Eleven families at small-to-medium widths, SAFE and UNSAFE, through
  // the single-core time-sliced portfolio: most problems are decided by
  // prep or within a few steps, so per-problem fixed costs (prep, session
  // start, the slice scheduler) dominate. Strata group instances whose
  // times agree within about 15% (median of five checks, 4-core x86
  // host); the median problem falls inside the tight 1.3-1.4 ms stratum.
  {
    Workload w{"suite-portfolio", {}};
    const auto p = [](const char* family, int width, bool safe) {
      return slice(family, width, safe);
    };
    const bool S = true, U = false;
    w.strata = {
        {{p("evencount", 5, S), p("evencount", 6, S)}, 8},
        {{p("mult", 4, S), p("mult", 5, S)}, 6},
        {{p("ring", 6, S), p("traffic", 0, U), p("traffic", 0, S),
          p("lfsr", 5, S)},
         12},
        {{p("counter", 4, S), p("lfsr", 6, S), p("lfsr", 7, S),
          p("counter", 5, S)},
         12},
        {{p("gray", 3, S), p("ring", 8, S), p("ring", 10, S)}, 12},
        {{p("gray", 4, S), p("gray", 5, S), p("counter", 6, S),
          p("haystack", 3, S)},
         12},
        {{p("ring", 6, U), p("gray", 3, U)}, 6},
        {{p("mult", 4, U), p("mult", 5, U), p("gray", 5, U), p("gray", 4, U)},
         14},
        {{p("haystack", 5, S), p("ring", 8, U), p("peterson", 0, S),
          p("evencount", 4, U)},
         12},
        {{p("queue", 3, S), p("haystack", 3, U), p("arbiter", 6, U)}, 10},
        {{p("ring", 10, U), p("queue", 4, S), p("haystack", 4, S)}, 10},
        {{p("counter", 4, U), p("evencount", 5, U), p("arbiter", 8, U),
          p("haystack", 4, U)},
         10},
        {{p("arbiter", 6, S)}, 4},
        {{p("lfsr", 5, U), p("lfsr", 7, U)}, 6},
        {{p("arbiter", 8, S)}, 3},
        {{p("queue", 3, U), p("arbiter", 12, U), p("evencount", 6, U)}, 6},
        {{p("lfsr", 6, U), p("counter", 5, U), p("haystack", 5, U),
          p("peterson", 0, U)},
         6},
        {{p("queue", 4, U), p("counter", 6, U)}, 4},
        {{p("arbiter", 12, S)}, 2},
    };
    all.push_back(std::move(w));
  }

  // Million-gate haystacks read from binary AIGER: the reader, prep and
  // the counterexample referee on the original network are nearly all
  // the work. Widths map to ~16 ANDs each (0.5M, 1M and 2M ANDs), +-2%
  // so seeds differ without moving the cost. The odd stratum count puts
  // the median problem at 1M ANDs instead of in the gap between sizes.
  // Not among BENCHMARK.json's workloads: on a shared host its memory-
  // bound work moved 15-20% (quartile spread over median) between runs,
  // even in 60 s runs.
  {
    Workload w{"giant-prep", {}};
    const std::pair<int, bool> strata[] = {{31250, true},   {31250, false},
                                           {62500, false},  {125000, true},
                                           {125000, false}};
    for (const auto& [centre, safe] : strata) {
      Stratum s{{}, 1};
      for (const int pct : {98, 100, 102})
        s.pool.push_back(
            seq("cbq-reach", "giant", centre * pct / 100, safe, true));
      w.strata.push_back(std::move(s));
    }
    all.push_back(std::move(w));
  }

  return all;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = buildWorkloads();
  return all;
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::vector<Problem> poolCircuits(const Workload& w) {
  std::vector<Problem> out;
  std::set<std::string> seen;
  for (const Stratum& s : w.strata)
    for (const Problem& p : s.pool)
      if (seen.insert(p.fileName()).second) out.push_back(p);
  return out;
}

std::vector<Problem> drawInstances(const Workload& w, std::uint64_t seed) {
  cbq::util::Random rng(seed);
  std::vector<Problem> list;
  for (const Stratum& s : w.strata)
    for (int i = 0; i < s.draws; ++i)
      list.push_back(s.pool[rng.below(s.pool.size())]);
  for (std::size_t i = list.size(); i > 1; --i)
    std::swap(list[i - 1], list[rng.below(i)]);
  return list;
}

}  // namespace cbqbench
