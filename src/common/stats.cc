#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace metis {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void Samples::Add(double x) {
  values_.push_back(x);
  sorted_valid_ = false;
}

void Samples::AddAll(const std::vector<double>& xs) {
  values_.insert(values_.end(), xs.begin(), xs.end());
  sorted_valid_ = false;
}

double Samples::mean() const {
  if (values_.empty()) {
    return 0;
  }
  return sum() / static_cast<double>(values_.size());
}

double Samples::sum() const {
  double s = 0;
  for (double v : values_) {
    s += v;
  }
  return s;
}

double Samples::min() const {
  METIS_CHECK(!values_.empty());
  return *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const {
  METIS_CHECK(!values_.empty());
  return *std::max_element(values_.begin(), values_.end());
}

void Samples::EnsureSorted() const {
  if (!sorted_valid_) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Samples::Quantile(double q) const {
  METIS_CHECK(!values_.empty());
  METIS_CHECK_GE(q, 0.0);
  METIS_CHECK_LE(q, 1.0);
  EnsureSorted();
  if (sorted_.size() == 1) {
    return sorted_[0];
  }
  double pos = q * static_cast<double>(sorted_.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted_.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

}  // namespace metis
