#include "util/stats.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rbpc {

void StatAccumulator::add(double x) {
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void StatAccumulator::merge(const StatAccumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n2 = static_cast<double>(other.count_);
  const double total = static_cast<double>(count_) + n2;
  mean_ += (other.mean_ - mean_) * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double StatAccumulator::mean() const {
  require(count_ > 0, "StatAccumulator::mean on empty accumulator");
  return mean_;
}

double StatAccumulator::min() const {
  require(count_ > 0, "StatAccumulator::min on empty accumulator");
  return min_;
}

double StatAccumulator::max() const {
  require(count_ > 0, "StatAccumulator::max on empty accumulator");
  return max_;
}

void QuantileSketch::ensure_sorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double QuantileSketch::quantile(double q) const {
  require(!values_.empty(), "QuantileSketch::quantile on empty sketch");
  require(q >= 0.0 && q <= 1.0, "QuantileSketch::quantile: q outside [0,1]");
  ensure_sorted();
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values_.size() - 1) + 0.5);
  return values_[std::min(rank, values_.size() - 1)];
}

void RatioOfMeans::add(double numerator, double denominator) {
  num_sum_ += numerator;
  den_sum_ += denominator;
  ++count_;
}

double RatioOfMeans::value() const {
  require(den_sum_ != 0.0, "RatioOfMeans::value: zero denominator sum");
  return num_sum_ / den_sum_;
}

}  // namespace rbpc
