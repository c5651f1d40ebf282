#pragma once
// Summary statistics and the result-line helpers of the benchmark.

#include <optional>
#include <string>
#include <vector>

namespace cbqbench {

/// Arithmetic mean; 0 when empty.
double mean(const std::vector<double>& v);

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> v);

/// Geometric mean of positive values; 0 when empty.
double geomean(const std::vector<double>& v);

/// A tail percentile: the highest of p99.9 / p99 / p95 / p90 that has at
/// least ten samples strictly beyond its rank (nearest-rank definition).
struct Tail {
  double percentile = 0.0;  ///< 90, 95, 99 or 99.9
  double value = 0.0;
  std::size_t beyond = 0;   ///< samples ranked beyond it
};

/// nullopt when even p90 would have fewer than ten samples beyond it,
/// i.e. for fewer than 100 samples.
std::optional<Tail> tailPercentile(std::vector<double> v);

/// Metric names are `[A-Za-z0-9_.-]+`, start with a letter or digit and
/// are at most 64 characters long.
bool validMetricName(const std::string& name);

/// Shortest decimal form that reads back as the same double.
std::string formatNumber(double v);

}  // namespace cbqbench
