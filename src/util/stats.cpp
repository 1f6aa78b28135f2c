#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace remos {

QuartileSummary QuartileSummary::scaled(double factor) const {
  QuartileSummary s{min * factor, q1 * factor, median * factor, q3 * factor,
                    max * factor};
  if (factor < 0) {
    std::swap(s.min, s.max);
    std::swap(s.q1, s.q3);
  }
  return s;
}

namespace {

double quantile_sorted(std::span<const double> sorted, double q) {
  const std::size_t n = sorted.size();
  if (n == 1) return sorted[0];
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

/// Five-number summary of a sorted, non-empty sample set.
QuartileSummary quartiles_sorted(std::span<const double> sorted) {
  return QuartileSummary{sorted.front(), quantile_sorted(sorted, 0.25),
                         quantile_sorted(sorted, 0.5),
                         quantile_sorted(sorted, 0.75), sorted.back()};
}

}  // namespace

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw InvalidArgument("quantile: empty sample set");
  if (q < 0.0 || q > 1.0) throw InvalidArgument("quantile: q outside [0,1]");
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, q);
}

QuartileSummary quartiles_of(std::vector<double> samples) {
  if (samples.empty()) throw InvalidArgument("quartiles_of: empty sample set");
  std::sort(samples.begin(), samples.end());
  return quartiles_sorted(samples);
}

Measurement Measurement::exact(double value) {
  Measurement m;
  m.quartiles = {value, value, value, value, value};
  m.mean = value;
  m.samples = 1;
  m.accuracy = 1.0;
  return m;
}

Measurement Measurement::from_samples(const std::vector<double>& samples) {
  std::vector<double> sorted = samples;
  return summarize(samples, sorted);
}

Measurement Measurement::summarize(std::span<const double> samples,
                                   std::span<double> sorted) {
  Measurement m;
  if (samples.empty()) return m;
  std::sort(sorted.begin(), sorted.end());
  m.quartiles = quartiles_sorted(sorted);
  double sum = 0;
  for (double x : samples) sum += x;
  m.mean = sum / static_cast<double>(samples.size());
  m.samples = samples.size();
  // Accuracy heuristic: saturating in sample count (cap at 16 samples),
  // discounted by relative interquartile dispersion.  A single sample is
  // a point estimate with low confidence; many tightly grouped samples
  // approach 1.
  const double count_term =
      std::min(1.0, static_cast<double>(samples.size()) / 16.0);
  const double scale = std::max(std::abs(m.mean), 1e-12);
  const double dispersion = std::min(1.0, m.quartiles.iqr() / scale);
  m.accuracy = count_term * (1.0 - 0.5 * dispersion);
  return m;
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

std::string to_string(const QuartileSummary& q) {
  std::ostringstream os;
  os << "[" << q.min << ", " << q.q1 << ", " << q.median << ", " << q.q3
     << ", " << q.max << "]";
  return os.str();
}

std::string to_string(const Measurement& m) {
  std::ostringstream os;
  os << to_string(m.quartiles) << " mean=" << m.mean << " n=" << m.samples
     << " acc=" << m.accuracy;
  return os.str();
}

}  // namespace remos
