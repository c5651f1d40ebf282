#pragma once
// Flat multi-word simulation signatures for sweeping-style engines.
//
// One cone, one arena: every node in the (topologically ordered) cone gets
// a dense slot, and all simulation words live in a single node-major
// std::vector<uint64_t> with a fixed stride. Compared to the previous
// vector-of-vectors design this removes every per-node allocation on the
// hot refinement path, and — because columns are stored per slot — a
// counterexample append simulates ONLY the new word column instead of
// resimulating the whole history (the old appendWord was O(words) per
// refinement round, O(words²) over a run).
//
// Simulation walks the cone's topological order, which is also the slot
// order: every fanin of a node lives in an earlier slot (or in the PI
// rows), so each node's row is written exactly once, front to back.
// resimulateAll() is node-major — per node a straight-line
// `(a^ma) & (b^mb)` loop over a contiguous row, which the compiler
// vectorizes.
//
// Class keys are 64-bit mixed hashes of the complement-normalized words
// (splitmix-style finalization per word), with exact word comparison as
// the collision referee, replacing the former per-node std::string keys.

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "util/random.hpp"

namespace cbq::audit {
struct Access;
}

namespace cbq::sweep {

/// splitmix64 finalizer — the word mixer behind every signature-class
/// key (sweeper classes and the DC engine's care-masked classes).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Signatures {
 public:
  /// Slot index inside the dense arena.
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = 0xffffffffu;

  /// `order` is the cone's AND nodes in topological order (fanins first),
  /// `support` the sorted external variables of its PIs. `initialWords`
  /// random columns are generated immediately; the arena reserves room for
  /// `maxWords` columns so refinement appends never reallocate.
  Signatures(const aig::Aig& aig, std::span<const aig::NodeId> order,
             std::span<const aig::VarId> support, util::Random& rng,
             int initialWords, int maxWords);

  [[nodiscard]] std::size_t words() const { return words_; }
  [[nodiscard]] std::size_t stride() const { return stride_; }

  /// Appends one simulation word per PI — bit j of `cexBits[i]` (parallel
  /// to the support array) is the j-th stored counterexample value, the
  /// remaining bits random noise — and simulates ONLY the new column.
  /// Returns false (and changes nothing, not even the RNG stream) when the
  /// arena is full (words() == stride()), so refinement loops can tell a
  /// real append from a no-op and surface an arena-full stat.
  [[nodiscard]] bool appendWord(std::span<const std::uint64_t> cexBits,
                                int cexCount, util::Random& rng);

  /// Recomputes every active column of every node from the stored PI
  /// words, node-major (per node, one contiguous SIMD-friendly word loop)
  /// over the topological order. The result must be bit-for-bit identical
  /// to the incrementally maintained state AND to resimulateAllReference();
  /// tests use both as referees.
  void resimulateAll();

  /// The column-major recomputation (one word column at a time), kept as
  /// the bit-exact referee for resimulateAll() (tests/test_sweep.cpp) and
  /// as the micro-benchmark baseline (bench/micro_aig.cpp).
  void resimulateAllReference();

  /// Active signature words of node `n` (must be in the cone).
  [[nodiscard]] std::span<const std::uint64_t> of(aig::NodeId n) const {
    return {&arena_[slotOf_[n] * stride_], words_};
  }

  [[nodiscard]] bool inCone(aig::NodeId n) const {
    return n < slotOf_.size() && slotOf_[n] != kNoSlot;
  }

  [[nodiscard]] bool allZero(aig::NodeId n) const;
  [[nodiscard]] bool allOne(aig::NodeId n) const;

  /// Complement-normalized 64-bit mixed hash plus the normalization phase
  /// (true = the signature was complemented so that bit 0 of word 0 is 0).
  struct Key {
    std::uint64_t hash;
    bool phase;
  };
  [[nodiscard]] Key normalizedKey(aig::NodeId n) const;

  /// Exact equality of the complement-normalized signatures (the collision
  /// referee behind hash-equal candidates).
  [[nodiscard]] bool equalNormalized(aig::NodeId a, bool phaseA,
                                     aig::NodeId b, bool phaseB) const;

 private:
  friend struct ::cbq::audit::Access;

  void simulateColumn(std::size_t w);
  void loadPiColumn(std::size_t w);

  const aig::Aig* aig_;
  std::vector<aig::NodeId> order_;  // topological; also the AND slot order
  std::vector<aig::VarId> support_;
  std::vector<aig::NodeId> supportNode_;  // PI node per support entry

  std::size_t stride_;  // reserved columns per slot
  std::size_t words_;   // active columns
  std::vector<Slot> slotOf_;          // NodeId -> arena slot (kNoSlot = out)
  std::vector<std::uint64_t> arena_;  // node-major, slot * stride_ + word
  std::vector<std::uint64_t> piArena_;  // support-major, i * stride_ + word
};

}  // namespace cbq::sweep
