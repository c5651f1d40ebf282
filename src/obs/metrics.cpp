#include "obs/metrics.hpp"

#include <bit>
#include <cmath>

#include "obs/json.hpp"

namespace cbq::obs {

namespace {

/// log2 bucket index for a duration in seconds: bit width of the
/// nanosecond count, clamped to the table.
std::size_t bucketIndex(double seconds) {
  if (!(seconds > 0.0)) return 0;
  const double ns = seconds * 1e9;
  if (ns >= 9.2e18) return Metrics::Histogram::kBuckets - 1;
  const auto n = static_cast<std::uint64_t>(ns);
  const std::size_t w = static_cast<std::size_t>(std::bit_width(n));
  return w < Metrics::Histogram::kBuckets ? w
                                          : Metrics::Histogram::kBuckets - 1;
}

}  // namespace

void Metrics::Histogram::record(double seconds) {
  ++buckets[bucketIndex(seconds)];
  ++count;
  sum += seconds;
  if (seconds > max) max = seconds;
}

void Metrics::Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
  if (other.max > max) max = other.max;
}

Metrics::Metrics(const Metrics& other) {
  // Locking our own (uncontended, under-construction) mutex keeps the
  // guarded-member writes visible to the static analysis.
  const util::MutexLock lockOther(other.mu_);
  const util::MutexLock lock(mu_);
  counters_ = other.counters_;
  gauges_ = other.gauges_;
  histograms_ = other.histograms_;
}

Metrics& Metrics::operator=(const Metrics& other) {
  if (this == &other) return *this;
  // Snapshot the source first so the two locks never nest (a->b and b->a
  // assignment races would deadlock with nested locking).
  std::map<std::string, std::int64_t> c;
  std::map<std::string, double> g;
  std::map<std::string, Histogram> h;
  {
    const util::MutexLock lock(other.mu_);
    c = other.counters_;
    g = other.gauges_;
    h = other.histograms_;
  }
  const util::MutexLock lock(mu_);
  counters_ = std::move(c);
  gauges_ = std::move(g);
  histograms_ = std::move(h);
  return *this;
}

void Metrics::add(const std::string& name, std::int64_t delta) {
  const util::MutexLock lock(mu_);
  counters_[name] += delta;
}

void Metrics::set(const std::string& name, double value) {
  const util::MutexLock lock(mu_);
  gauges_[name] = value;
}

void Metrics::high(const std::string& name, double value) {
  const util::MutexLock lock(mu_);
  auto [it, inserted] = gauges_.emplace(name, value);
  if (!inserted && value > it->second) it->second = value;
}

void Metrics::observe(const std::string& name, double seconds) {
  const util::MutexLock lock(mu_);
  histograms_[name].record(seconds);
}

std::int64_t Metrics::count(const std::string& name) const {
  const util::MutexLock lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double Metrics::gauge(const std::string& name) const {
  const util::MutexLock lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

Metrics::Histogram Metrics::histogram(const std::string& name) const {
  const util::MutexLock lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? Histogram{} : it->second;
}

void Metrics::merge(const Metrics& other) {
  if (this == &other) return;
  std::map<std::string, std::int64_t> c;
  std::map<std::string, double> g;
  std::map<std::string, Histogram> h;
  {
    const util::MutexLock lock(other.mu_);
    c = other.counters_;
    g = other.gauges_;
    h = other.histograms_;
  }
  const util::MutexLock lock(mu_);
  for (const auto& [k, v] : c) counters_[k] += v;
  for (const auto& [k, v] : g) {
    auto [it, inserted] = gauges_.emplace(k, v);
    if (!inserted && v > it->second) it->second = v;
  }
  for (const auto& [k, v] : h) histograms_[k].merge(v);
}

void Metrics::clear() {
  const util::MutexLock lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

std::map<std::string, std::int64_t> Metrics::counters() const {
  const util::MutexLock lock(mu_);
  return counters_;
}

std::map<std::string, double> Metrics::gauges() const {
  const util::MutexLock lock(mu_);
  return gauges_;
}

std::map<std::string, Metrics::Histogram> Metrics::histograms() const {
  const util::MutexLock lock(mu_);
  return histograms_;
}

void Metrics::writeJson(std::ostream& out) const {
  const auto counters = this->counters();
  const auto gauges = this->gauges();
  const auto histograms = this->histograms();
  out << "{\"counters\": {";
  bool first = true;
  for (const auto& [k, v] : counters) {
    out << (first ? "" : ", ") << '"' << jsonEscape(k) << "\": " << v;
    first = false;
  }
  out << "}, \"gauges\": {";
  first = true;
  for (const auto& [k, v] : gauges) {
    out << (first ? "" : ", ") << '"' << jsonEscape(k)
        << "\": " << jsonFinite(v);
    first = false;
  }
  out << "}, \"histograms\": {";
  first = true;
  for (const auto& [k, v] : histograms) {
    out << (first ? "" : ", ") << '"' << jsonEscape(k)
        << "\": {\"count\": " << v.count
        << ", \"sum_seconds\": " << jsonFinite(v.sum)
        << ", \"max_seconds\": " << jsonFinite(v.max) << ", \"buckets\": [";
    bool firstB = true;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (v.buckets[i] == 0) continue;
      // Upper bound of bucket i in nanoseconds: 2^i.
      const double upperNs = std::ldexp(1.0, static_cast<int>(i));
      out << (firstB ? "" : ", ") << '[' << upperNs << ", " << v.buckets[i]
          << ']';
      firstB = false;
    }
    out << "]}";
    first = false;
  }
  out << "}}";
}

std::ostream& operator<<(std::ostream& os, const Metrics& m) {
  for (const auto& [k, v] : m.counters()) os << k << " = " << v << '\n';
  for (const auto& [k, v] : m.gauges()) os << k << " = " << v << '\n';
  for (const auto& [k, v] : m.histograms())
    os << k << " = " << v.count << " samples, " << v.sum << "s total, "
       << v.max << "s max\n";
  return os;
}

Metrics& globalMetrics() {
  // cbq-lint: allow(naked-new) intentionally leaked singleton so late
  // detached threads can still record during process exit
  static Metrics* g = new Metrics();
  return *g;
}

}  // namespace cbq::obs
