// Metrics registry of the telemetry subsystem: named counters, gauges and
// fixed-bucket latency histograms, labelled by VM/device/channel.
//
// Concurrency model: single-writer. The hypervisor pipeline is a
// deterministic slot-level simulation driven from one thread, so instruments
// are plain (lock-free) fields; per-thread registries from parallel trials
// are combined with merge(), mirroring how per-core hardware counters are
// read out and aggregated. That contract is machine-checked two ways: a
// debug-build ThreadChecker (common/sync.hpp) binds each registry to its
// writing thread and rebind_writer() marks the barrier handoff (the
// ParallelRunner merge), and the fan-out sites themselves build under
// -Wthread-safety (DESIGN.md §13).
//
// Naming follows Prometheus conventions: snake_case metric names
// ([a-zA-Z_][a-zA-Z0-9_]*), `_total` suffix on counters, unit suffix on
// histograms (e.g. ioguard_stage_latency_slots). Instrument references
// returned by the registry stay valid for the registry's lifetime.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.hpp"

namespace ioguard::telemetry {

/// One key="value" pair attached to an instrument.
struct Label {
  std::string key;
  std::string value;
  friend bool operator==(const Label&, const Label&) = default;
};
using Labels = std::vector<Label>;

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value (backlog depth, utilization fraction...).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket latency histogram. Bucket i counts observations
/// x <= bound(i); a final implicit +Inf bucket catches the tail. Bounds are
/// fixed at creation (hardware counters have fixed comparators), and two
/// histograms merge only when their bounds match.
class LatencyHistogram {
 public:
  explicit LatencyHistogram(std::vector<double> upper_bounds);

  void observe(double x);
  void merge(const LatencyHistogram& other);

  /// Replaces the histogram's state with a checkpointed snapshot: per-bucket
  /// counts (bounds().size() + 1 entries, checked) and the exact observation
  /// sum. The total count is recomputed from the buckets, so a restored
  /// histogram is bit-identical to the one that was encoded.
  void load(const std::vector<std::uint64_t>& counts, double sum);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  /// Finite buckets only; the +Inf bucket is counts().back().
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Size bounds().size() + 1; last entry is the +Inf bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }
  /// Cumulative count of observations <= bounds()[i] (Prometheus `le`).
  [[nodiscard]] std::uint64_t cumulative(std::size_t i) const;

 private:
  std::vector<double> bounds_;          // ascending, finite
  std::vector<std::uint64_t> counts_;   // bounds_.size() + 1 (last = +Inf)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Default bucket ladder for slot-granularity latencies: powers of two from
/// 1 slot (10 us) to 16384 slots (~164 ms).
[[nodiscard]] std::vector<double> default_slot_buckets();

/// Default bucket ladder for sub-slot cycle costs (translator): 4..512.
[[nodiscard]] std::vector<double> default_cycle_buckets();

/// Owns every instrument of a run. Lookup is (name, labels) -> instrument;
/// a name is bound to exactly one instrument type (checked).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  MetricsRegistry(MetricsRegistry&&) = default;
  MetricsRegistry& operator=(MetricsRegistry&&) = default;

  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  LatencyHistogram& histogram(std::string_view name, const Labels& labels = {},
                              const std::vector<double>& upper_bounds = {});

  /// Folds `other` in: counters and histograms add; gauges take the other
  /// registry's value (last writer wins, matching a counter read-out order).
  void merge(const MetricsRegistry& other);

  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  /// One labelled instrument, exposed for exporters (ordered by name, then
  /// by serialized labels -- deterministic output).
  struct Entry {
    std::string name;
    Labels labels;
    Kind kind;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const LatencyHistogram* histogram = nullptr;
  };
  [[nodiscard]] std::vector<Entry> entries() const;

  /// Transfers single-writer ownership to the calling thread at an external
  /// synchronization point (the post-fan-out barrier in ParallelRunner).
  /// Debug builds CHECK-fail on a mutation from any other thread without
  /// this; release builds compile it away.
  void rebind_writer() const { writer_checker_.rebind(); }

 private:
  struct Instrument;
  struct Family;

  Family& family(std::string_view name, Kind kind);
  Instrument& instrument(std::string_view name, Kind kind,
                         const Labels& labels);

  // map keeps families sorted by name for deterministic exposition.
  std::map<std::string, Family, std::less<>> families_;
  ThreadChecker writer_checker_;  ///< single-writer contract (debug builds)
};

/// Serializes labels canonically: {a="x",b="y"} (keys in insertion order).
[[nodiscard]] std::string format_labels(const Labels& labels);

struct MetricsRegistry::Instrument {
  Labels labels;
  // Exactly one engaged, matching the family kind. unique_ptr keeps
  // references stable across map rehash/moves.
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<LatencyHistogram> histogram;
};

struct MetricsRegistry::Family {
  Kind kind = Kind::kCounter;
  std::map<std::string, Instrument> by_labels;  // key = format_labels()
};

}  // namespace ioguard::telemetry
