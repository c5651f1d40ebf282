#include "circuits/suite.hpp"

#include <stdexcept>

namespace cbq::circuits {

std::vector<std::string> familyNames() {
  return {"counter", "evencount", "gray", "ring", "arbiter",
          "traffic", "lfsr", "queue", "mult", "peterson", "haystack",
          "giant"};
}

Instance makeInstance(const std::string& family, int width, bool safe) {
  Instance inst;
  inst.family = family;
  inst.width = width;
  inst.expected = safe ? mc::Verdict::Safe : mc::Verdict::Unsafe;
  if (family == "counter") {
    inst.net = makeCounter(width, safe);
  } else if (family == "evencount") {
    inst.net = makeEvenCounter(width, safe);
  } else if (family == "gray") {
    inst.net = makeGrayPair(width, safe);
  } else if (family == "ring") {
    inst.net = makeTokenRing(width, safe);
  } else if (family == "arbiter") {
    inst.net = makeArbiter(width, safe);
  } else if (family == "traffic") {
    inst.net = makeTrafficLight(safe);
    inst.width = 0;
  } else if (family == "lfsr") {
    inst.net = makeLfsr(width, safe);
  } else if (family == "queue") {
    inst.net = makeQueue(width, safe);
  } else if (family == "mult") {
    inst.net = makeMultiplier(width, safe);
  } else if (family == "peterson") {
    inst.net = makePeterson(safe);
    inst.width = 0;
  } else if (family == "haystack") {
    inst.net = makeHaystack(width, safe);
  } else if (family == "giant") {
    // width = mixing stages per comparison cone; the 4-bit core and two
    // duplicate registers are fixed, so ANDs ≈ 16 · width + O(1).
    inst.net = makeGiantHaystack(4, width, 2, safe);
  } else {
    throw std::invalid_argument("unknown benchmark family: " + family);
  }
  return inst;
}

std::vector<Instance> standardSuite() {
  std::vector<Instance> suite;
  for (const bool safe : {true, false}) {
    suite.push_back(makeInstance("counter", 3, safe));
    suite.push_back(makeInstance("counter", 4, safe));
    suite.push_back(makeInstance("evencount", 4, safe));
    suite.push_back(makeInstance("evencount", 5, safe));
    suite.push_back(makeInstance("gray", 3, safe));
    suite.push_back(makeInstance("gray", 4, safe));
    suite.push_back(makeInstance("ring", 4, safe));
    suite.push_back(makeInstance("ring", 6, safe));
    suite.push_back(makeInstance("arbiter", 3, safe));
    suite.push_back(makeInstance("arbiter", 4, safe));
    suite.push_back(makeInstance("traffic", 0, safe));
    suite.push_back(makeInstance("lfsr", 4, safe));
    suite.push_back(makeInstance("lfsr", 5, safe));
    suite.push_back(makeInstance("queue", 3, safe));
    suite.push_back(makeInstance("mult", 4, safe));
    suite.push_back(makeInstance("peterson", 0, safe));
    suite.push_back(makeInstance("haystack", 3, safe));
    // Small enough for every engine raw (the BDD baselines blow up on
    // the wide mixing support past ~width 10); larger widths reach the
    // million-gate range.
    suite.push_back(makeInstance("giant", 8, safe));
  }
  return suite;
}

std::vector<Instance> widthSweep(const std::string& family,
                                 std::vector<int> widths, bool safe) {
  std::vector<Instance> out;
  out.reserve(widths.size());
  for (const int w : widths) out.push_back(makeInstance(family, w, safe));
  return out;
}

}  // namespace cbq::circuits
