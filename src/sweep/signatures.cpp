#include "sweep/signatures.hpp"

namespace cbq::sweep {

namespace {

using aig::Lit;
using aig::NodeId;
using aig::VarId;

std::uint64_t negMask(bool b) { return b ? ~std::uint64_t{0} : 0; }

}  // namespace

Signatures::Signatures(const aig::Aig& aig, std::span<const NodeId> order,
                       std::span<const VarId> support, util::Random& rng,
                       int initialWords, int capacityWords)
    : aig_(&aig),
      order_(order.begin(), order.end()),
      support_(support.begin(), support.end()),
      stride_(static_cast<std::size_t>(
          capacityWords > initialWords ? capacityWords : initialWords)),
      words_(static_cast<std::size_t>(initialWords > 0 ? initialWords : 1)) {
  if (stride_ < words_) stride_ = words_;

  supportNode_.reserve(support_.size());
  for (const VarId v : support_) supportNode_.push_back(aig.piNodeOf(v));

  // Dense slots: constant node first, then the support PIs, then the cone
  // ANDs in topological order.
  slotOf_.assign(aig.numNodes(), kNoSlot);
  Slot next = 0;
  slotOf_[0] = next++;
  for (const NodeId p : supportNode_)
    if (slotOf_[p] == kNoSlot) slotOf_[p] = next++;
  for (const NodeId n : order_)
    if (slotOf_[n] == kNoSlot) slotOf_[n] = next++;

  arena_.assign(static_cast<std::size_t>(next) * stride_, 0);
  piArena_.assign(support_.size() * stride_, 0);
  for (std::size_t i = 0; i < support_.size(); ++i)
    for (std::size_t w = 0; w < words_; ++w)
      piArena_[i * stride_ + w] = rng.next64();

  resimulateAll();
}

void Signatures::loadPiColumn(std::size_t w) {
  for (std::size_t i = 0; i < support_.size(); ++i)
    arena_[slotOf_[supportNode_[i]] * stride_ + w] = piArena_[i * stride_ + w];
}

void Signatures::simulateColumn(std::size_t w) {
  // Constant slot stays 0. PIs first, then the ANDs in topological (= slot)
  // order, so every fanin word is final before it is read.
  loadPiColumn(w);
  for (const NodeId n : order_) {
    const Lit f0 = aig_->fanin0(n);
    const Lit f1 = aig_->fanin1(n);
    const std::uint64_t a =
        arena_[slotOf_[f0.node()] * stride_ + w] ^ negMask(f0.negated());
    const std::uint64_t b =
        arena_[slotOf_[f1.node()] * stride_ + w] ^ negMask(f1.negated());
    arena_[slotOf_[n] * stride_ + w] = a & b;
  }
}

bool Signatures::appendWord(std::span<const std::uint64_t> cexBits,
                            int cexCount, util::Random& rng) {
  if (words_ >= stride_) return false;  // arena full — a true no-op
  const std::uint64_t keepMask =
      cexCount >= 64 ? ~std::uint64_t{0}
                     : ((std::uint64_t{1} << cexCount) - 1);
  const std::size_t w = words_;
  for (std::size_t i = 0; i < support_.size(); ++i) {
    std::uint64_t word = rng.next64() & ~keepMask;
    word |= cexBits[i] & keepMask;
    piArena_[i * stride_ + w] = word;
  }
  ++words_;
  simulateColumn(w);
  return true;
}

void Signatures::resimulateAll() {
  // Node-major: one pass over the cone, and per node a contiguous word
  // loop the compiler vectorizes (mask-XOR + AND over dense rows). The
  // PI rows are copied first; order_ is topological, so fanin rows are
  // complete when a node reads them.
  for (std::size_t w = 0; w < words_; ++w) loadPiColumn(w);
  const std::size_t words = words_;
  for (const NodeId n : order_) {
    const Lit f0 = aig_->fanin0(n);
    const Lit f1 = aig_->fanin1(n);
    const std::uint64_t ma = negMask(f0.negated());
    const std::uint64_t mb = negMask(f1.negated());
    const std::uint64_t* a = &arena_[slotOf_[f0.node()] * stride_];
    const std::uint64_t* b = &arena_[slotOf_[f1.node()] * stride_];
    std::uint64_t* o = &arena_[slotOf_[n] * stride_];
    for (std::size_t w = 0; w < words; ++w)
      o[w] = (a[w] ^ ma) & (b[w] ^ mb);
  }
}

void Signatures::resimulateAllReference() {
  // Column-major over the same topological order — a different traversal
  // of the same recurrence, kept as the bit-exact referee.
  for (std::size_t w = 0; w < words_; ++w) {
    loadPiColumn(w);
    for (const NodeId n : order_) {
      const Lit f0 = aig_->fanin0(n);
      const Lit f1 = aig_->fanin1(n);
      const std::uint64_t a =
          arena_[slotOf_[f0.node()] * stride_ + w] ^ negMask(f0.negated());
      const std::uint64_t b =
          arena_[slotOf_[f1.node()] * stride_ + w] ^ negMask(f1.negated());
      arena_[slotOf_[n] * stride_ + w] = a & b;
    }
  }
}

bool Signatures::allZero(NodeId n) const {
  const std::uint64_t* s = &arena_[slotOf_[n] * stride_];
  for (std::size_t w = 0; w < words_; ++w)
    if (s[w] != 0) return false;
  return true;
}

bool Signatures::allOne(NodeId n) const {
  const std::uint64_t* s = &arena_[slotOf_[n] * stride_];
  for (std::size_t w = 0; w < words_; ++w)
    if (s[w] != ~std::uint64_t{0}) return false;
  return true;
}

Signatures::Key Signatures::normalizedKey(NodeId n) const {
  const std::uint64_t* s = &arena_[slotOf_[n] * stride_];
  const bool phase = (s[0] & 1) != 0;
  const std::uint64_t flip = negMask(phase);
  std::uint64_t h = 0x2545f4914f6cdd1dull;
  for (std::size_t w = 0; w < words_; ++w)
    h = mix64(h ^ mix64((s[w] ^ flip) + w));
  return {h, phase};
}

bool Signatures::equalNormalized(NodeId a, bool phaseA, NodeId b,
                                 bool phaseB) const {
  const std::uint64_t* sa = &arena_[slotOf_[a] * stride_];
  const std::uint64_t* sb = &arena_[slotOf_[b] * stride_];
  const std::uint64_t flip = negMask(phaseA != phaseB);
  for (std::size_t w = 0; w < words_; ++w)
    if (sa[w] != (sb[w] ^ flip)) return false;
  return true;
}

}  // namespace cbq::sweep
