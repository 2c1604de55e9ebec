// HDR-style log-linear integer histogram (DESIGN.md §14.1).
//
// Values in [0, kTopValue] are bucketed with a bounded relative error: each
// power-of-two "bucket" is split into 2^kSubBucketBits linear sub-buckets,
// so a value's reported bound exceeds it by at most 1/8 of the value.
// Values below 2^kSubBucketBits are exact. This is the canonical
// HdrHistogram layout (Gil Tene) restricted to unit_magnitude 0, integer
// counts and one fixed range, which makes merge() an element-wise integer
// add -- deterministic regardless of merge order, which is what lets jitter
// series stay byte-identical across --jobs=1 vs N.
//
// Values above kTopValue are counted apart (beyond_top()): quantiles and
// max() clamp them to kTopValue, while sum() keeps their exact values, so
// the summary and Prometheus exports print what a clamped HDR histogram and
// a fixed-bucket histogram with a +Inf bucket would.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ioguard {

class HdrHistogram {
 public:
  /// 2^4 linear sub-buckets per power-of-two bucket.
  static constexpr std::uint32_t kSubBucketBits = 4;
  /// The power-of-two bucket holding 2^24 (the layout's max_value) is the
  /// last one, so the buckets tile [0, 2^25 - 1].
  static constexpr std::uint64_t kTopValue = (std::uint64_t{1} << 25) - 1;
  /// 16 exact values, then 8 sub-buckets for each of the 21 doublings up
  /// to kTopValue.
  static constexpr std::size_t kBucketCount = 184;

  /// The stored state; the checkpoint codec writes and restores it.
  struct Raw {
    std::array<std::uint64_t, kBucketCount> counts{};
    std::uint64_t beyond_top = 0;  ///< values above kTopValue
    std::uint64_t sum = 0;         ///< exact, beyond_top values included
    std::uint64_t max = 0;         ///< clamped to kTopValue; 0 when empty
    friend bool operator==(const Raw&, const Raw&) = default;
  };

  /// count() is recomputed from the buckets and beyond_top.
  [[nodiscard]] static HdrHistogram from_raw(const Raw& raw);

  void record(std::uint64_t value);
  void merge(const HdrHistogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return raw_.sum; }
  [[nodiscard]] std::uint64_t max() const { return raw_.max; }
  [[nodiscard]] std::uint64_t beyond_top() const { return raw_.beyond_top; }
  [[nodiscard]] std::uint64_t count_at(std::size_t index) const {
    return raw_.counts[index];
  }
  [[nodiscard]] const Raw& raw() const { return raw_; }

  /// Highest value equivalent to the bucket holding the p-th percentile
  /// (p in [0, 100]); 0 when empty, kTopValue when the rank falls among
  /// the values beyond the top bucket.
  [[nodiscard]] std::uint64_t value_at_percentile(double p) const;

  [[nodiscard]] static std::size_t index_of(std::uint64_t value);
  [[nodiscard]] static std::uint64_t bucket_lower(std::size_t index);
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t index);

  /// Upper bounds of every bucket as doubles, ascending -- the `le` ladder
  /// of a LatencyHistogram that holds the same counts, with beyond_top()
  /// as its +Inf bucket.
  [[nodiscard]] static std::vector<double> bounds();

  friend bool operator==(const HdrHistogram&, const HdrHistogram&) = default;

 private:
  Raw raw_;
  std::uint64_t count_ = 0;
};

}  // namespace ioguard
