#pragma once
// The benchmark's workloads: fixed pools of generated circuits with their
// ground truth, and the seeded draw that picks one run's instance list.
//
// Every pool is split into strata of near-equal-cost instances and a run
// draws a fixed number from each stratum, so two seeds give different
// lists whose total cost differs only by the small spread inside a
// stratum. That is what lets runs with different seeds be compared.

#include <cstdint>
#include <string>
#include <vector>

#include "mc/network.hpp"
#include "mc/result.hpp"

namespace cbqbench {

/// One problem: a generated circuit, its constructed verdict, and how it
/// is checked.
struct Problem {
  std::string family;
  int width = 0;
  bool safe = true;
  /// Sequential engine (`cbq-reach`, `bmc`, `k-induction`); empty means
  /// the single-core time-sliced portfolio with the default engine set.
  std::string engine;
  bool binary = false;  ///< written as binary AIGER (.aig) instead of .aag

  /// "cbq-reach:counter8_unsafe", "portfolio:arbiter6_safe", ...
  [[nodiscard]] std::string label() const;
  /// "counter8_unsafe.aag": one file per circuit, whichever engine.
  [[nodiscard]] std::string fileName() const;
  [[nodiscard]] cbq::mc::Verdict expected() const {
    return safe ? cbq::mc::Verdict::Safe : cbq::mc::Verdict::Unsafe;
  }
  /// Builds the circuit (circuits::makeInstance).
  [[nodiscard]] cbq::mc::Network build() const;
};

struct Stratum {
  std::vector<Problem> pool;
  int draws = 0;  ///< instances drawn from `pool` per list
};

struct Workload {
  std::string name;
  std::vector<Stratum> strata;
};

/// Every workload, in a fixed order.
const std::vector<Workload>& workloads();

/// nullptr when no workload has that name.
const Workload* findWorkload(const std::string& name);

/// Every circuit of the workload's pool, one Problem per distinct file.
std::vector<Problem> poolCircuits(const Workload& w);

/// The instance list for `seed`: `draws` picks with replacement from each
/// stratum (util::Random seeded with `seed`), then shuffled. Equal seeds
/// give identical lists.
std::vector<Problem> drawInstances(const Workload& w, std::uint64_t seed);

}  // namespace cbqbench
