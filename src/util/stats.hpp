// Statistical summaries used by the Remos data representation (paper §4.4).
//
// Remos reports every dynamic quantity as a set of quartile measures plus
// an estimation-accuracy figure, because network measurements rarely follow
// a known distribution (bursty cross-traffic gives bimodal availability).
// QuartileSummary is that representation; this header also provides the
// sample-set reductions that produce it.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace remos {

/// Five-number summary of a sample set: minimum, first quartile, median,
/// third quartile, maximum -- "considered the best choice for an unknown
/// data distribution" (Jain 1991, cited as [15] in the paper).
struct QuartileSummary {
  double min = 0;
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  double max = 0;

  double spread() const { return max - min; }
  double iqr() const { return q3 - q1; }

  /// Scales all five numbers (e.g. octets -> bits).
  QuartileSummary scaled(double factor) const;

  bool operator==(const QuartileSummary&) const = default;
};

/// A dynamic quantity as the Remos API reports it: quartiles of observed
/// values, the sample mean, the number of samples behind the estimate, and
/// an accuracy grade in [0,1] (1 = invariant physical capacity; lower as
/// the estimate rests on fewer or more dispersed samples).
struct Measurement {
  QuartileSummary quartiles;
  double mean = 0;
  std::size_t samples = 0;
  double accuracy = 0;

  /// An exactly-known (static) quantity, e.g. a link's physical capacity.
  static Measurement exact(double value);

  /// Summarizes a sample set.  Accuracy grows with sample count and falls
  /// with relative dispersion; empty input yields a zero, accuracy-0 value.
  static Measurement from_samples(const std::vector<double>& samples);
  /// The same summary of a fixed-size sample set, bit for bit, without
  /// allocating.
  template <std::size_t N>
  static Measurement from_samples(const std::array<double, N>& samples) {
    std::array<double, N> sorted = samples;
    return summarize(samples, sorted);
  }

  bool known() const { return samples > 0; }

 private:
  /// from_samples' arithmetic: the mean of `samples` in their order, the
  /// quartiles of `sorted` (a copy of them, sorted in place here).
  static Measurement summarize(std::span<const double> samples,
                               std::span<double> sorted);
};

/// Linear-interpolation quantile (R-7, the default in S and numpy) of an
/// unsorted sample set.  q in [0,1].  Throws InvalidArgument on empty input.
double quantile(std::vector<double> samples, double q);

/// Five-number summary of an unsorted sample set (single sort internally).
QuartileSummary quartiles_of(std::vector<double> samples);

/// Incremental mean/variance (Welford) for streaming statistics.
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

std::string to_string(const QuartileSummary& q);
std::string to_string(const Measurement& m);

}  // namespace remos
