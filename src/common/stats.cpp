#include "common/stats.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ioguard {

void OnlineStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  mean_ += delta * m / (n + m);
  m2_ += other.m2_ + delta * delta * n * m / (n + m);
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

OnlineStats OnlineStats::from_raw(const Raw& raw) {
  OnlineStats s;
  s.n_ = static_cast<std::size_t>(raw.n);
  s.mean_ = raw.mean;
  s.m2_ = raw.m2;
  s.min_ = raw.min;
  s.max_ = raw.max;
  return s;
}

void SampleSet::merge(const SampleSet& other) {
  if (other.samples_.empty()) return;
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sorted_ = false;
}

void SampleSet::ensure_sorted() {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::percentile_sorted(const std::vector<double>& sorted,
                                    double p) {
  IOGUARD_CHECK(!sorted.empty());
  IOGUARD_CHECK(p >= 0.0 && p <= 100.0);
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double SampleSet::percentile(double p) {
  ensure_sorted();
  return percentile_sorted(samples_, p);
}

double SampleSet::percentile(double p) const {
  if (sorted_) return percentile_sorted(samples_, p);
  std::vector<double> scratch = samples_;
  std::sort(scratch.begin(), scratch.end());
  return percentile_sorted(scratch, p);
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleSet::max() {
  IOGUARD_CHECK(!samples_.empty());
  ensure_sorted();
  return samples_.back();
}

double SampleSet::max() const {
  IOGUARD_CHECK(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

}  // namespace ioguard
