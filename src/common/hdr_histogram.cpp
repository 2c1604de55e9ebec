#include "common/hdr_histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.hpp"

namespace ioguard {

namespace {

constexpr std::uint64_t kSubBucketMask =
    (std::uint64_t{1} << HdrHistogram::kSubBucketBits) - 1;
constexpr std::size_t kSubBucketHalf = std::size_t{1}
                                       << (HdrHistogram::kSubBucketBits - 1);
// max_value 2^24 has bit width 25, so the top power-of-two bucket is 21.
constexpr std::uint32_t kTopBucket =
    std::bit_width(std::uint64_t{1} << 24) - HdrHistogram::kSubBucketBits;
static_assert(HdrHistogram::kTopValue ==
              ((kSubBucketMask + 1) << kTopBucket) - 1);
static_assert(HdrHistogram::kBucketCount == (kTopBucket + 2) * kSubBucketHalf);

/// Power-of-two bucket of an index: bucket 0 owns indices [0, 2*half),
/// every later bucket only its upper half of sub-indices, packed.
[[nodiscard]] std::uint32_t bucket_of(std::size_t index) {
  return index >= 2 * kSubBucketHalf
             ? static_cast<std::uint32_t>(index / kSubBucketHalf) - 1
             : 0;
}

}  // namespace

HdrHistogram HdrHistogram::from_raw(const Raw& raw) {
  HdrHistogram h;
  h.raw_ = raw;
  h.count_ = raw.beyond_top;
  for (const std::uint64_t c : raw.counts) h.count_ += c;
  return h;
}

std::size_t HdrHistogram::index_of(std::uint64_t value) {
  const auto bucket = static_cast<std::uint32_t>(
      std::bit_width(value | kSubBucketMask) - kSubBucketBits);
  return static_cast<std::size_t>(bucket) * kSubBucketHalf +
         static_cast<std::size_t>(value >> bucket);
}

void HdrHistogram::record(std::uint64_t value) {
  ++count_;
  raw_.sum += value;
  if (value > kTopValue) {
    ++raw_.beyond_top;
    raw_.max = kTopValue;
    return;
  }
  ++raw_.counts[index_of(value)];
  raw_.max = std::max(raw_.max, value);
}

void HdrHistogram::merge(const HdrHistogram& other) {
  for (std::size_t i = 0; i < kBucketCount; ++i)
    raw_.counts[i] += other.raw_.counts[i];
  raw_.beyond_top += other.raw_.beyond_top;
  raw_.sum += other.raw_.sum;
  raw_.max = std::max(raw_.max, other.raw_.max);
  count_ += other.count_;
}

std::uint64_t HdrHistogram::bucket_lower(std::size_t index) {
  const std::uint32_t bucket = bucket_of(index);
  const std::uint64_t sub =
      bucket == 0 ? index : (index % kSubBucketHalf) + kSubBucketHalf;
  return sub << bucket;
}

std::uint64_t HdrHistogram::bucket_upper(std::size_t index) {
  return bucket_lower(index) + ((std::uint64_t{1} << bucket_of(index)) - 1);
}

std::uint64_t HdrHistogram::value_at_percentile(double p) const {
  IOGUARD_CHECK(p >= 0.0 && p <= 100.0);
  if (count_ == 0) return 0;
  auto required =
      static_cast<std::uint64_t>(std::ceil(p / 100.0 *
                                           static_cast<double>(count_)));
  required = std::clamp<std::uint64_t>(required, 1, count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    cumulative += raw_.counts[i];
    if (cumulative >= required) return bucket_upper(i);
  }
  return kTopValue;
}

std::vector<double> HdrHistogram::bounds() {
  std::vector<double> out;
  out.reserve(kBucketCount);
  for (std::size_t i = 0; i < kBucketCount; ++i)
    out.push_back(static_cast<double>(bucket_upper(i)));
  return out;
}

}  // namespace ioguard
