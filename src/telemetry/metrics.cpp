#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace ioguard::telemetry {

namespace {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return head(c) || (c >= '0' && c <= '9');
  });
}

}  // namespace

std::string format_labels(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ',';
    out += labels[i].key;
    out += "=\"";
    out += labels[i].value;
    out += '"';
  }
  out += '}';
  return out;
}

// ------------------------------------------------------- LatencyHistogram

LatencyHistogram::LatencyHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  IOGUARD_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bucket");
  IOGUARD_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                    "histogram bounds must ascend");
  IOGUARD_CHECK_MSG(std::isfinite(bounds_.back()),
                    "histogram bounds must be finite (+Inf is implicit)");
  counts_.assign(bounds_.size() + 1, 0);
}

void LatencyHistogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const auto i = static_cast<std::size_t>(it - bounds_.begin());
  ++counts_[i];  // i == bounds_.size() -> +Inf bucket
  ++count_;
  sum_ += x;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  IOGUARD_CHECK_MSG(bounds_ == other.bounds_,
                    "merging histograms with different bucket bounds");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

void LatencyHistogram::load(const std::vector<std::uint64_t>& counts,
                            double sum) {
  IOGUARD_CHECK_MSG(counts.size() == bounds_.size() + 1,
                    "histogram snapshot bucket count mismatch");
  counts_ = counts;
  count_ = 0;
  for (const std::uint64_t c : counts_) count_ += c;
  sum_ = sum;
}

std::uint64_t LatencyHistogram::cumulative(std::size_t i) const {
  IOGUARD_CHECK(i < counts_.size());
  std::uint64_t acc = 0;
  for (std::size_t k = 0; k <= i; ++k) acc += counts_[k];
  return acc;
}

std::vector<double> default_slot_buckets() {
  std::vector<double> b;
  for (double x = 1.0; x <= 16384.0; x *= 2.0) b.push_back(x);
  return b;
}

std::vector<double> default_cycle_buckets() {
  std::vector<double> b;
  for (double x = 4.0; x <= 512.0; x *= 2.0) b.push_back(x);
  return b;
}

// -------------------------------------------------------- MetricsRegistry

MetricsRegistry::Family& MetricsRegistry::family(std::string_view name,
                                                 Kind kind) {
  IOGUARD_DCHECK_MSG(writer_checker_.check(),
                     "MetricsRegistry is single-writer: mutate from one "
                     "thread, or rebind_writer() at a synchronization point");
  IOGUARD_CHECK_MSG(valid_metric_name(name), "invalid metric name");
  auto it = families_.find(name);
  if (it == families_.end()) {
    it = families_.emplace(std::string(name), Family{}).first;
    it->second.kind = kind;
  }
  IOGUARD_CHECK_MSG(it->second.kind == kind,
                    "metric name reused with a different instrument type");
  return it->second;
}

MetricsRegistry::Instrument& MetricsRegistry::instrument(
    std::string_view name, Kind kind, const Labels& labels) {
  Family& fam = family(name, kind);
  const std::string key = format_labels(labels);
  auto it = fam.by_labels.find(key);
  if (it == fam.by_labels.end()) {
    Instrument inst;
    inst.labels = labels;
    it = fam.by_labels.emplace(key, std::move(inst)).first;
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  const Labels& labels) {
  Instrument& inst = instrument(name, Kind::kCounter, labels);
  if (!inst.counter) inst.counter = std::make_unique<Counter>();
  return *inst.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  Instrument& inst = instrument(name, Kind::kGauge, labels);
  if (!inst.gauge) inst.gauge = std::make_unique<Gauge>();
  return *inst.gauge;
}

LatencyHistogram& MetricsRegistry::histogram(
    std::string_view name, const Labels& labels,
    const std::vector<double>& upper_bounds) {
  Instrument& inst = instrument(name, Kind::kHistogram, labels);
  if (!inst.histogram)
    inst.histogram = std::make_unique<LatencyHistogram>(
        upper_bounds.empty() ? default_slot_buckets() : upper_bounds);
  return *inst.histogram;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, fam] : other.families_) {
    for (const auto& [key, inst] : fam.by_labels) {
      switch (fam.kind) {
        case Kind::kCounter:
          counter(name, inst.labels).inc(inst.counter->value());
          break;
        case Kind::kGauge:
          gauge(name, inst.labels).set(inst.gauge->value());
          break;
        case Kind::kHistogram:
          histogram(name, inst.labels, inst.histogram->bounds())
              .merge(*inst.histogram);
          break;
      }
    }
  }
}

std::vector<MetricsRegistry::Entry> MetricsRegistry::entries() const {
  std::vector<Entry> out;
  for (const auto& [name, fam] : families_) {
    for (const auto& [key, inst] : fam.by_labels) {
      Entry e;
      e.name = name;
      e.labels = inst.labels;
      e.kind = fam.kind;
      e.counter = inst.counter.get();
      e.gauge = inst.gauge.get();
      e.histogram = inst.histogram.get();
      out.push_back(std::move(e));
    }
  }
  return out;
}

}  // namespace ioguard::telemetry
