// Online statistics accumulators used by the metrics pipeline:
// Welford running mean, min/max, and a percentile-capable sample reservoir.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ioguard {

/// Numerically stable running mean and extrema (Welford). The second moment
/// m2 is kept and merged too, because checkpoint records carry it.
class OnlineStats {
 public:
  /// Exact internal state, for bit-faithful checkpoint serialization: an
  /// accumulator restored via from_raw(raw()) produces byte-identical
  /// mean/extrema to the original, including the empty-state sentinels
  /// (min = +inf, max = -inf).
  struct Raw {
    std::uint64_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };

  void add(double x);
  void merge(const OnlineStats& other);

  [[nodiscard]] Raw raw() const {
    return {static_cast<std::uint64_t>(n_), mean_, m2_, min_, max_};
  }
  [[nodiscard]] static OnlineStats from_raw(const Raw& raw);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// NaN when no samples: an empty accumulator has no extrema, and a silent
  /// 0.0 would read as a genuine observed latency downstream.
  [[nodiscard]] double min() const {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double max() const {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Stores all samples; provides exact percentiles. For bounded experiment
/// sizes this is simpler and more accurate than a streaming sketch.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  void reserve(std::size_t n) { samples_.reserve(n); }

  /// Appends every sample of `other` (parallel-reduction building block;
  /// merging in trial-index order reproduces the sequential insert order).
  void merge(const SampleSet& other);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Samples in insertion order (mean() sums in this order, so checkpoint
  /// serialization must preserve it to stay bit-identical).
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

  /// Exact percentile by linear interpolation; p in [0, 100].
  /// Both overloads share one implementation over a sorted view: the
  /// non-const overload sorts in place (cheapest when the caller owns the
  /// set); the const overload sorts a scratch copy, leaving the set
  /// untouched.
  [[nodiscard]] double percentile(double p);
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() { return percentile(50.0); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double max();
  [[nodiscard]] double max() const;

 private:
  void ensure_sorted();
  /// The single percentile implementation: linear interpolation between
  /// neighbouring order statistics of an ascending-sorted sample vector.
  [[nodiscard]] static double percentile_sorted(
      const std::vector<double>& sorted, double p);
  std::vector<double> samples_;
  bool sorted_ = false;
};

}  // namespace ioguard
