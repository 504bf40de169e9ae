// Streaming statistics accumulators used by the experiment engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace rbpc {

/// Single-pass accumulator for count / mean / min / max (running mean).
class StatAccumulator {
 public:
  void add(double x);

  /// Merges another accumulator into this one (count-weighted means).
  void merge(const StatAccumulator& other);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Mean of the observations. Precondition: !empty().
  double mean() const;
  /// Precondition: !empty().
  double min() const;
  /// Precondition: !empty().
  double max() const;
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Accumulates a full sample so exact quantiles can be extracted; used for
/// the stretch-factor distributions of Figure 10.
class QuantileSketch {
 public:
  void add(double x) { values_.push_back(x); }
  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// q in [0, 1]; nearest-rank quantile. Precondition: !empty().
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Ratio-of-means helper: the paper's "length stretch factor" is
/// mean(backup hops) / mean(original hops), not mean of ratios.
class RatioOfMeans {
 public:
  void add(double numerator, double denominator);
  bool empty() const { return count_ == 0; }
  std::size_t count() const { return count_; }
  /// Precondition: denominator sum non-zero.
  double value() const;

 private:
  double num_sum_ = 0.0;
  double den_sum_ = 0.0;
  std::size_t count_ = 0;
};

}  // namespace rbpc
