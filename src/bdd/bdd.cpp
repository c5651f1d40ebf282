#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include "util/fault.hpp"

namespace cbq::bdd {

namespace {

constexpr std::size_t kMinUniqueSlots = 256;
// The ITE table doubles whenever the arena outgrows kNodesPerIteSlot
// nodes per slot, up to kMaxIteSlots (16 MB).
constexpr std::size_t kMinIteSlots = 256;
constexpr std::size_t kMaxIteSlots = std::size_t{1} << 20;
constexpr std::size_t kNodesPerIteSlot = 4;

std::size_t hash3(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  std::uint64_t h = a;
  h = h * 0x9e3779b97f4a7c15ULL + b;
  h = h * 0x9e3779b97f4a7c15ULL + c;
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ULL;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

}  // namespace

BddManager::BddManager(std::size_t nodeLimit)
    : unique_(kMinUniqueSlots, kFalseBdd),
      iteCache_(kMinIteSlots),
      nodeLimit_(nodeLimit) {}

std::uint32_t BddManager::levelOf(aig::VarId v) {
  auto it = varLevel_.find(v);
  if (it != varLevel_.end()) return it->second;
  const auto level = static_cast<std::uint32_t>(levelToVar_.size());
  varLevel_.emplace(v, level);
  levelToVar_.push_back(v);
  return level;
}

BddRef BddManager::mkNode(std::uint32_t level, BddRef lo, BddRef hi) {
  if (lo == hi) return lo;
  const std::size_t mask = unique_.size() - 1;
  std::size_t slot = hash3(level, lo, hi) & mask;
  for (; unique_[slot] != kFalseBdd; slot = (slot + 1) & mask) {
    const Node& n = nodes_[unique_[slot] - 2];
    if (n.level == level && n.lo == lo && n.hi == hi) return unique_[slot];
  }
  if (nodeLimit_ != 0 && nodes_.size() >= nodeLimit_) throw NodeLimitExceeded{};
  if (interrupt_ && (++allocsSinceInterruptPoll_ & 255u) == 0 &&
      interrupt_())
    throw Interrupted{};
  // Injection site: a blown-up BDD allocation deep inside image/ite
  // recursion — the classic organic failure the engine barriers contain.
  CBQ_FAULT_POINT("bdd.alloc");
  nodes_.push_back(Node{level, lo, hi});
  const auto ref = static_cast<BddRef>(nodes_.size() + 1);  // ids offset by 2
  unique_[slot] = ref;
  if (2 * nodes_.size() > unique_.size()) growUnique();
  if (nodes_.size() > kNodesPerIteSlot * iteCache_.size() &&
      iteCache_.size() < kMaxIteSlots)
    growIteCache();
  return ref;
}

void BddManager::growUnique() {
  std::vector<BddRef> grown(2 * unique_.size(), kFalseBdd);
  const std::size_t mask = grown.size() - 1;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    std::size_t slot = hash3(n.level, n.lo, n.hi) & mask;
    while (grown[slot] != kFalseBdd) slot = (slot + 1) & mask;
    grown[slot] = static_cast<BddRef>(i + 2);
  }
  unique_.swap(grown);
}

void BddManager::growIteCache() {
  std::vector<IteEntry> grown(2 * iteCache_.size());
  const std::size_t mask = grown.size() - 1;
  for (const IteEntry& e : iteCache_)
    if (e.f != kFalseBdd) grown[hash3(e.f, e.g, e.h) & mask] = e;
  iteCache_.swap(grown);
}

BddRef BddManager::var(aig::VarId v) {
  return mkNode(levelOf(v), kFalseBdd, kTrueBdd);
}

BddRef BddManager::ite(BddRef f, BddRef g, BddRef h) {
  // Terminal and trivial cases.
  if (f == kTrueBdd) return g;
  if (f == kFalseBdd) return h;
  if (g == h) return g;
  if (g == kTrueBdd && h == kFalseBdd) return f;
  if (f == g) return ite(f, kTrueBdd, h);
  if (f == h) return ite(f, g, kFalseBdd);

  const std::size_t hash = hash3(f, g, h);
  if (const IteEntry& e = iteCache_[hash & (iteCache_.size() - 1)];
      e.f == f && e.g == g && e.h == h)
    return e.r;

  const std::uint32_t top =
      std::min({nodeLevel(f), nodeLevel(g), nodeLevel(h)});
  auto cof = [&](BddRef x, bool positive) {
    if (nodeLevel(x) != top) return x;
    return positive ? hi(x) : lo(x);
  };
  const BddRef r0 = ite(cof(f, false), cof(g, false), cof(h, false));
  const BddRef r1 = ite(cof(f, true), cof(g, true), cof(h, true));
  const BddRef r = mkNode(top, r0, r1);
  // The recursion may have grown the table: index with its current size.
  iteCache_[hash & (iteCache_.size() - 1)] = IteEntry{f, g, h, r};
  return r;
}

BddRef BddManager::cofactor(BddRef f, aig::VarId v, bool value) {
  const std::uint32_t level = levelOf(v);
  // Simple recursive restriction with a local memo.
  std::unordered_map<BddRef, BddRef> memo;
  auto rec = [&](auto&& self, BddRef x) -> BddRef {
    if (isTerminal(x) || nodeLevel(x) > level) return x;
    if (auto it = memo.find(x); it != memo.end()) return it->second;
    BddRef r;
    if (nodeLevel(x) == level) {
      r = value ? hi(x) : lo(x);
    } else {
      r = mkNode(nodeLevel(x), self(self, lo(x)), self(self, hi(x)));
    }
    memo.emplace(x, r);
    return r;
  };
  return rec(rec, f);
}

BddRef BddManager::existsOne(BddRef f, std::uint32_t level,
                             std::unordered_map<BddRef, BddRef>& memo) {
  if (isTerminal(f) || nodeLevel(f) > level) return f;
  if (auto it = memo.find(f); it != memo.end()) return it->second;
  BddRef r;
  if (nodeLevel(f) == level) {
    r = bddOr(lo(f), hi(f));
  } else {
    r = mkNode(nodeLevel(f), existsOne(lo(f), level, memo),
               existsOne(hi(f), level, memo));
  }
  memo.emplace(f, r);
  return r;
}

BddRef BddManager::exists(BddRef f, std::span<const aig::VarId> vars) {
  std::vector<std::uint32_t> levels;
  levels.reserve(vars.size());
  for (const aig::VarId v : vars) levels.push_back(levelOf(v));
  // Quantify bottom-most variables first: their or() results are smaller.
  std::sort(levels.begin(), levels.end(), std::greater<>());
  BddRef r = f;
  for (const std::uint32_t level : levels) {
    std::unordered_map<BddRef, BddRef> memo;
    r = existsOne(r, level, memo);
  }
  return r;
}

BddRef BddManager::composeRec(
    BddRef f, const std::unordered_map<std::uint32_t, BddRef>& byLevel,
    std::unordered_map<BddRef, BddRef>& memo) {
  if (isTerminal(f)) return f;
  if (auto it = memo.find(f); it != memo.end()) return it->second;
  const std::uint32_t level = nodeLevel(f);
  const BddRef r0 = composeRec(lo(f), byLevel, memo);
  const BddRef r1 = composeRec(hi(f), byLevel, memo);
  BddRef selector;
  if (auto it = byLevel.find(level); it != byLevel.end()) {
    selector = it->second;
  } else {
    selector = mkNode(level, kFalseBdd, kTrueBdd);
  }
  // Substituted functions may depend on variables above `level`, so the
  // recombination must go through ite, not mkNode.
  const BddRef r = ite(selector, r1, r0);
  memo.emplace(f, r);
  return r;
}

BddRef BddManager::compose(
    BddRef f, const std::unordered_map<aig::VarId, BddRef>& map) {
  std::unordered_map<std::uint32_t, BddRef> byLevel;
  byLevel.reserve(map.size());
  for (const auto& [v, g] : map) byLevel.emplace(levelOf(v), g);
  std::unordered_map<BddRef, BddRef> memo;
  return composeRec(f, byLevel, memo);
}

BddRef BddManager::andExistsRec(
    BddRef f, BddRef g, const std::vector<bool>& quantified,
    std::unordered_map<TripleKey, BddRef, TripleHash>& memo) {
  if (f == kFalseBdd || g == kFalseBdd) return kFalseBdd;
  if (f == kTrueBdd && g == kTrueBdd) return kTrueBdd;
  const TripleKey key{f, g, 0};
  if (auto it = memo.find(key); it != memo.end()) return it->second;

  const std::uint32_t top = std::min(nodeLevel(f), nodeLevel(g));
  auto cof = [&](BddRef x, bool positive) {
    if (nodeLevel(x) != top) return x;
    return positive ? hi(x) : lo(x);
  };
  const BddRef r0 =
      andExistsRec(cof(f, false), cof(g, false), quantified, memo);
  BddRef r;
  if (top < quantified.size() && quantified[top]) {
    // Early terminal: x ∨ 1 = 1.
    if (r0 == kTrueBdd) {
      r = kTrueBdd;
    } else {
      const BddRef r1 =
          andExistsRec(cof(f, true), cof(g, true), quantified, memo);
      r = bddOr(r0, r1);
    }
  } else {
    const BddRef r1 =
        andExistsRec(cof(f, true), cof(g, true), quantified, memo);
    r = mkNode(top, r0, r1);
  }
  memo.emplace(key, r);
  return r;
}

BddRef BddManager::andExists(BddRef f, BddRef g,
                             std::span<const aig::VarId> vars) {
  std::vector<bool> quantified(levelToVar_.size(), false);
  for (const aig::VarId v : vars) {
    const std::uint32_t level = levelOf(v);
    if (level >= quantified.size()) quantified.resize(level + 1, false);
    quantified[level] = true;
  }
  std::unordered_map<TripleKey, BddRef, TripleHash> memo;
  return andExistsRec(f, g, quantified, memo);
}

std::size_t BddManager::size(BddRef f) const {
  if (isTerminal(f)) return 0;
  std::vector<BddRef> stack{f};
  std::unordered_map<BddRef, bool> seen;
  std::size_t count = 0;
  while (!stack.empty()) {
    const BddRef x = stack.back();
    stack.pop_back();
    if (isTerminal(x) || seen.contains(x)) continue;
    seen.emplace(x, true);
    ++count;
    stack.push_back(lo(x));
    stack.push_back(hi(x));
  }
  return count;
}

double BddManager::satCount(BddRef f) const {
  std::unordered_map<BddRef, double> memo;
  auto fraction = [&](auto&& self, BddRef x) -> double {
    if (x == kFalseBdd) return 0.0;
    if (x == kTrueBdd) return 1.0;
    if (auto it = memo.find(x); it != memo.end()) return it->second;
    const double r = 0.5 * self(self, lo(x)) + 0.5 * self(self, hi(x));
    memo.emplace(x, r);
    return r;
  };
  double scale = 1.0;
  for (std::size_t i = 0; i < levelToVar_.size(); ++i) scale *= 2.0;
  return fraction(fraction, f) * scale;
}

bool BddManager::evaluate(
    BddRef f,
    const std::unordered_map<aig::VarId, bool>& assignment) const {
  BddRef x = f;
  while (!isTerminal(x)) {
    const aig::VarId v = levelToVar_[nodeLevel(x)];
    auto it = assignment.find(v);
    const bool value = it != assignment.end() && it->second;
    x = value ? hi(x) : lo(x);
  }
  return x == kTrueBdd;
}

bool BddManager::evaluate(BddRef f,
                          const std::vector<bool>& assignment) const {
  BddRef x = f;
  while (!isTerminal(x)) {
    const aig::VarId v = levelToVar_[nodeLevel(x)];
    const bool value = v < assignment.size() && assignment[v];
    x = value ? hi(x) : lo(x);
  }
  return x == kTrueBdd;
}

std::unordered_map<aig::VarId, bool> BddManager::anySat(BddRef f) const {
  std::unordered_map<aig::VarId, bool> out;
  if (f == kFalseBdd) return out;
  BddRef x = f;
  while (!isTerminal(x)) {
    // Without complement edges FALSE is structurally unreachable from a
    // satisfiable function on only-FALSE branches; prefer lo when viable.
    const aig::VarId v = levelToVar_[nodeLevel(x)];
    if (lo(x) != kFalseBdd) {
      out.emplace(v, false);
      x = lo(x);
    } else {
      out.emplace(v, true);
      x = hi(x);
    }
  }
  return out;
}

void BddManager::clearCaches() {
  std::fill(iteCache_.begin(), iteCache_.end(), IteEntry{});
}

BddRef aigToBdd(const aig::Aig& aig, aig::Lit root, BddManager& mgr) {
  const aig::Lit roots[] = {root};
  const auto order = aig.coneAnds(roots);
  std::unordered_map<aig::NodeId, BddRef> val;
  val.reserve(order.size() + 8);

  auto litBdd = [&](aig::Lit l) -> BddRef {
    BddRef b;
    if (aig.isConst(l.node())) {
      b = kFalseBdd;
    } else if (aig.isPi(l.node())) {
      auto it = val.find(l.node());
      if (it == val.end()) {
        b = mgr.var(aig.piVar(l.node()));
        val.emplace(l.node(), b);
      } else {
        b = it->second;
      }
    } else {
      b = val.at(l.node());
    }
    return l.negated() ? mgr.bddNot(b) : b;
  };

  for (const aig::NodeId n : order) {
    val.emplace(n, mgr.bddAnd(litBdd(aig.fanin0(n)), litBdd(aig.fanin1(n))));
  }
  return litBdd(root);
}

}  // namespace cbq::bdd
