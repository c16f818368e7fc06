// Aggregation helpers for experiment metrics (delay percentiles, F1 means).

#ifndef METIS_SRC_COMMON_STATS_H_
#define METIS_SRC_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace metis {

// Streaming mean/variance/min/max (Welford).
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  size_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
  double sum_ = 0;
};

// Stores all samples; supports exact quantiles. Sample counts in this
// repository are small (hundreds to tens of thousands), so exact is fine.
class Samples {
 public:
  void Add(double x);
  void AddAll(const std::vector<double>& xs);

  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double mean() const;
  double sum() const;
  double min() const;
  double max() const;
  // q in [0, 1]; linear interpolation between closest ranks.
  double Quantile(double q) const;
  double median() const { return Quantile(0.5); }
  double p90() const { return Quantile(0.90); }
  double p99() const { return Quantile(0.99); }

  const std::vector<double>& values() const { return values_; }

 private:
  void EnsureSorted() const;

  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace metis

#endif  // METIS_SRC_COMMON_STATS_H_
