// Timing-accuracy observability (DESIGN.md §14): the HDR histogram, the
// per-operation jitter recorder, the deadline-miss flight recorder, and
// the cycle-attribution profiler.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/hdr_histogram.hpp"
#include "common/jitter.hpp"
#include "core/event_trace.hpp"
#include "system/checkpoint.hpp"
#include "system/runner.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace ioguard {
namespace {

namespace fs = std::filesystem;

// ---- HDR log-linear histogram ----------------------------------------------

TEST(HdrHistogram, SmallValuesAreExact) {
  HdrHistogram h;  // 4 sub-bucket bits: values < 16 are exact
  for (std::uint64_t v = 0; v < 16; ++v) h.record(v);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9 + 10 + 11 + 12 +
                         13 + 14 + 15);
  EXPECT_EQ(h.max(), 15u);
  for (std::uint64_t v = 0; v < 16; ++v) {
    const std::size_t i = HdrHistogram::index_of(v);
    EXPECT_EQ(HdrHistogram::bucket_lower(i), v) << "value " << v;
    EXPECT_EQ(HdrHistogram::bucket_upper(i), v) << "value " << v;
    EXPECT_EQ(h.count_at(i), 1u) << "value " << v;
  }
}

TEST(HdrHistogram, EmptyHistogramReportsZeros) {
  const HdrHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.value_at_percentile(50.0), 0u);
  EXPECT_EQ(h.value_at_percentile(100.0), 0u);
}

TEST(HdrHistogram, BucketBoundsPartitionTheRange) {
  // Buckets tile [0, kTopValue] with no gaps and no overlaps.
  EXPECT_EQ(HdrHistogram::bucket_lower(0), 0u);
  for (std::size_t i = 1; i < HdrHistogram::kBucketCount; ++i)
    EXPECT_EQ(HdrHistogram::bucket_lower(i),
              HdrHistogram::bucket_upper(i - 1) + 1)
        << "bucket " << i;
  EXPECT_EQ(HdrHistogram::bucket_upper(HdrHistogram::kBucketCount - 1),
            HdrHistogram::kTopValue);
  // index_of is the inverse of the bounds at both edges of every bucket.
  for (std::size_t i = 0; i < HdrHistogram::kBucketCount; ++i) {
    EXPECT_EQ(HdrHistogram::index_of(HdrHistogram::bucket_lower(i)), i);
    EXPECT_EQ(HdrHistogram::index_of(HdrHistogram::bucket_upper(i)), i);
  }
}

TEST(HdrHistogram, RelativeQuantizationErrorIsBounded) {
  // 2^4 sub-buckets: a value lands in [8w, 16w) for its bucket width w, so
  // the recorded-to-reported error is bounded by w <= v/8.
  for (std::uint64_t v : {17u, 100u, 999u, 12345u, 1000000u}) {
    const std::uint64_t reported =
        HdrHistogram::bucket_upper(HdrHistogram::index_of(v));
    ASSERT_GE(reported, v);
    EXPECT_LE(reported - v, v / 8 + 1) << "value " << v;
  }
}

TEST(HdrHistogram, SaturatesAboveMaxValue) {
  HdrHistogram h;
  h.record(999);
  h.record(HdrHistogram::kTopValue);
  h.record(HdrHistogram::kTopValue + 1);  // beyond the top bucket
  h.record(50000000);                     // beyond the top bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.beyond_top(), 2u);
  EXPECT_EQ(h.count_at(HdrHistogram::kBucketCount - 1), 1u);
  // The sum stays exact; max and the quantiles clamp to the top bound.
  EXPECT_EQ(h.sum(), 999u + 2 * HdrHistogram::kTopValue + 1 + 50000000);
  EXPECT_EQ(h.max(), HdrHistogram::kTopValue);
  EXPECT_EQ(h.value_at_percentile(50.0), HdrHistogram::kTopValue);
  EXPECT_EQ(h.value_at_percentile(100.0), HdrHistogram::kTopValue);
  EXPECT_EQ(h.value_at_percentile(25.0),
            HdrHistogram::bucket_upper(HdrHistogram::index_of(999)));
}

TEST(HdrHistogram, MergeIsOrderIndependent) {
  const std::vector<std::uint64_t> samples = {
      0, 3, 17, 250, 251, 4096, 99, 100, 101, 7, 1 << 20,
      HdrHistogram::kTopValue + 5};
  HdrHistogram all;
  for (auto v : samples) all.record(v);

  // Split across three shards two different ways; merge in opposite orders.
  HdrHistogram a, b, c;
  for (std::size_t i = 0; i < samples.size(); ++i)
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(samples[i]);
  HdrHistogram forward;
  forward.merge(a);
  forward.merge(b);
  forward.merge(c);
  HdrHistogram backward;
  backward.merge(c);
  backward.merge(b);
  backward.merge(a);

  for (const auto* m : {&forward, &backward}) {
    EXPECT_EQ(m->count(), all.count());
    EXPECT_EQ(m->sum(), all.sum());
    EXPECT_EQ(m->max(), all.max());
    EXPECT_EQ(m->beyond_top(), all.beyond_top());
    for (std::size_t i = 0; i < HdrHistogram::kBucketCount; ++i)
      EXPECT_EQ(m->count_at(i), all.count_at(i)) << "bucket " << i;
    EXPECT_TRUE(*m == all);
  }
}

TEST(HdrHistogram, RawRoundTripRecomputesTheCount) {
  HdrHistogram h;
  for (std::uint64_t v : {0u, 5u, 5u, 700u, 40000000u}) h.record(v);
  const HdrHistogram restored = HdrHistogram::from_raw(h.raw());
  EXPECT_TRUE(restored == h);
  EXPECT_EQ(restored.count(), 5u);
}

TEST(HdrHistogram, QuantilesLandInTheRightBuckets) {
  HdrHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);  // uniform 1..1000
  // Reported quantile is the upper bound of the owning bucket: never below
  // the true quantile, within the 1/8 relative error above it.
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const auto truth = static_cast<std::uint64_t>(p / 100.0 * 1000.0);
    const std::uint64_t got = h.value_at_percentile(p);
    EXPECT_GE(got, truth) << "p" << p;
    EXPECT_LE(got, truth + truth / 8 + 1) << "p" << p;
  }
  EXPECT_EQ(h.value_at_percentile(0.0),
            HdrHistogram::bucket_upper(HdrHistogram::index_of(1)));
  EXPECT_EQ(h.value_at_percentile(100.0),
            HdrHistogram::bucket_upper(HdrHistogram::index_of(1000)));
}

TEST(HdrHistogram, BoundsMatchLatencyHistogramBucketing) {
  // The Prometheus bridge loads an HdrHistogram's buckets into a
  // LatencyHistogram over bounds(), with beyond_top() as its +Inf bucket:
  // a LatencyHistogram observing the same integer samples must agree.
  HdrHistogram hdr;
  telemetry::LatencyHistogram lat(HdrHistogram::bounds());
  const std::vector<std::uint64_t> samples = {
      0, 1, 15, 16, 17, 255, 4095, 4096, 1u << 20, HdrHistogram::kTopValue,
      HdrHistogram::kTopValue + 1};
  for (auto v : samples) {
    hdr.record(v);
    lat.observe(static_cast<double>(v));
  }
  ASSERT_EQ(lat.bounds().size(), HdrHistogram::kBucketCount);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < HdrHistogram::kBucketCount; ++i) {
    cumulative += hdr.count_at(i);
    EXPECT_EQ(lat.cumulative(i), cumulative) << "bucket " << i;
  }
  EXPECT_EQ(lat.counts().back(), hdr.beyond_top());
  EXPECT_EQ(lat.count(), hdr.count());
  EXPECT_EQ(lat.sum(), static_cast<double>(hdr.sum()));
}

// ---- jitter recorder -------------------------------------------------------

TEST(JitterRecorder, RoutesSamplesByChannelAndVm) {
  JitterRecorder rec(2, /*cycles_per_slot=*/1000);
  rec.record(JitterChannel::kPChannel, VmId{0}, TaskId{7}, 100, 100);
  rec.record(JitterChannel::kRChannel, VmId{1}, TaskId{9}, 100, 104);
  rec.record(JitterChannel::kRChannel, VmId{1}, TaskId{9}, 200, 212);
  rec.record(JitterChannel::kFifo, VmId{0}, TaskId{3}, 50, 55);
  const JitterSummary j = rec.harvest();

  EXPECT_TRUE(j.collected);
  ASSERT_EQ(j.p_by_vm.size(), 2u);
  ASSERT_EQ(j.r_by_vm.size(), 2u);
  ASSERT_EQ(j.fifo_by_vm.size(), 2u);
  EXPECT_EQ(j.p_by_vm[0].count(), 1u);
  EXPECT_EQ(j.p_by_vm[0].max(), 0u);
  EXPECT_EQ(j.r_by_vm[1].count(), 2u);
  EXPECT_EQ(j.r_by_vm[1].sum(), 16000u);
  EXPECT_EQ(j.r_by_vm[1].max(), 12000u);
  EXPECT_EQ(j.r_by_vm[0].count(), 0u);
  EXPECT_EQ(j.fifo_by_vm[0].max(), 5000u);
  EXPECT_TRUE(j.translator_by_device.empty());

  ASSERT_EQ(j.by_task.size(), 3u);  // ascending by task id, in slots
  EXPECT_EQ(j.by_task[0].task, 3u);
  EXPECT_EQ(j.by_task[1].task, 7u);
  EXPECT_EQ(j.by_task[2].task, 9u);
  EXPECT_EQ(j.by_task[2].ops, 2u);
  EXPECT_EQ(j.by_task[2].worst_slots, 12u);
}

TEST(JitterRecorder, TranslatorSamplesGrowPerDevice) {
  JitterRecorder rec(1, /*cycles_per_slot=*/1000);
  rec.record_translator(DeviceId{2}, 17);
  rec.record_translator(DeviceId{0}, 3);
  const auto t = rec.harvest().translator_by_device;
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].count(), 1u);
  EXPECT_EQ(t[0].max(), 3u);  // cycles, not scaled
  EXPECT_EQ(t[1].count(), 0u);
  EXPECT_EQ(t[2].max(), 17u);
}

// ---- flight recorder -------------------------------------------------------

class FlightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("ioguard_flight_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static core::TraceEvent event(Slot slot, core::TraceEventKind kind,
                                std::uint32_t aux = 0) {
    core::TraceEvent e;
    e.slot = slot;
    e.kind = kind;
    e.device = DeviceId{1};
    e.vm = VmId{2};
    e.task = TaskId{30};
    e.job = JobId{4};
    e.aux = aux;
    return e;
  }

  fs::path dir_;
};

TEST_F(FlightTest, DumpRoundTripsThroughReader) {
  core::EventTrace trace(128);
  telemetry::FlightRecorderConfig cfg;
  cfg.dir = dir_.string();
  cfg.stem = "t3";
  cfg.last_n = 4;
  telemetry::FlightRecorder rec(cfg);
  rec.set_state_writer(
      [](std::ostream& os) { os << "state,device=1,backlog=5\n"; });
  trace.set_observer(&rec);

  for (Slot s = 0; s < 6; ++s)
    trace.record(event(s, core::TraceEventKind::kComplete));
  trace.record(event(6, core::TraceEventKind::kDeadlineMiss, /*aux=*/3));
  trace.set_observer(nullptr);

  ASSERT_EQ(rec.dumps_written(), 1u);
  ASSERT_TRUE(rec.status().ok()) << rec.status();
  const auto dump = telemetry::read_flight_dump(path("t3.flight1.txt"));
  ASSERT_TRUE(dump.ok()) << dump.status();
  EXPECT_EQ(dump->trigger, "deadline_miss");
  EXPECT_EQ(dump->slot, 6u);
  EXPECT_EQ(dump->seq, 1u);
  EXPECT_EQ(dump->stem, "t3");
  ASSERT_EQ(dump->events.size(), 4u);  // last_n, oldest first
  EXPECT_EQ(dump->events.front().slot, 3u);
  EXPECT_EQ(dump->events.back().slot, 6u);
  EXPECT_EQ(dump->events.back().kind, core::TraceEventKind::kDeadlineMiss);
  EXPECT_EQ(dump->events.back().aux, 3u);
  EXPECT_EQ(dump->events.back().vm.value, 2u);
  ASSERT_EQ(dump->state_lines.size(), 1u);
  EXPECT_EQ(dump->state_lines[0], "state,device=1,backlog=5");
}

TEST_F(FlightTest, MaxDumpsBoundsFilesPerTrial) {
  core::EventTrace trace(128);
  telemetry::FlightRecorderConfig cfg;
  cfg.dir = dir_.string();
  cfg.max_dumps = 2;
  telemetry::FlightRecorder rec(cfg);
  trace.set_observer(&rec);
  for (Slot s = 0; s < 10; ++s)
    trace.record(event(s, core::TraceEventKind::kDeadlineMiss));
  trace.set_observer(nullptr);

  EXPECT_EQ(rec.dumps_written(), 2u);
  EXPECT_EQ(rec.triggers_seen(), 10u);
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir_)) ++files;
  EXPECT_EQ(files, 2u);
}

TEST_F(FlightTest, NonTriggerEventsDoNotDump) {
  EXPECT_TRUE(telemetry::flight_trigger(core::TraceEventKind::kDeadlineMiss));
  EXPECT_TRUE(telemetry::flight_trigger(core::TraceEventKind::kWatchdogAbort));
  EXPECT_TRUE(telemetry::flight_trigger(core::TraceEventKind::kShed));
  EXPECT_FALSE(telemetry::flight_trigger(core::TraceEventKind::kComplete));
  EXPECT_FALSE(telemetry::flight_trigger(core::TraceEventKind::kSubmit));

  core::EventTrace trace(16);
  telemetry::FlightRecorderConfig cfg;
  cfg.dir = dir_.string();
  telemetry::FlightRecorder rec(cfg);
  trace.set_observer(&rec);
  trace.record(event(0, core::TraceEventKind::kComplete));
  trace.set_observer(nullptr);
  EXPECT_EQ(rec.dumps_written(), 0u);
}

TEST_F(FlightTest, ReaderRejectsTruncatedAndMalformedDumps) {
  core::EventTrace trace(16);
  telemetry::FlightRecorderConfig cfg;
  cfg.dir = dir_.string();
  telemetry::FlightRecorder rec(cfg);
  trace.set_observer(&rec);
  trace.record(event(0, core::TraceEventKind::kComplete));
  trace.record(event(1, core::TraceEventKind::kDeadlineMiss));
  trace.set_observer(nullptr);
  const std::string good = path("trial0.flight1.txt");
  ASSERT_TRUE(telemetry::read_flight_dump(good).ok());

  // Chop the file anywhere: the reader must refuse, never mis-parse.
  std::ifstream in(good, std::ios::binary);
  std::string full((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  for (std::size_t cut : {full.size() / 4, full.size() / 2, full.size() - 2}) {
    const std::string cut_path = path("cut.txt");
    // IOGUARD_LINT_ALLOW(LNT005: deliberately torn/garbage fixture file)
    std::ofstream(cut_path, std::ios::binary) << full.substr(0, cut);
    const auto result = telemetry::read_flight_dump(cut_path);
    ASSERT_FALSE(result.ok()) << "cut at " << cut;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(exit_code(result.status()), 2) << "cut at " << cut;
  }

  // IOGUARD_LINT_ALLOW(LNT005: deliberately torn/garbage fixture file)
  std::ofstream(path("bad.txt")) << "not a flight dump\n";
  EXPECT_EQ(telemetry::read_flight_dump(path("bad.txt")).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(telemetry::read_flight_dump(path("absent.txt")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(FlightTest, TraceCsvRoundTripsAndRejectsGarbage) {
  core::EventTrace trace(16);
  trace.record(event(0, core::TraceEventKind::kSubmit));
  trace.record(event(5, core::TraceEventKind::kTranslate, /*aux=*/12));
  const std::string csv = path("trace.csv");
  {
    // IOGUARD_LINT_ALLOW(LNT005: deliberately torn/garbage fixture file)
    std::ofstream out(csv);
    trace.dump_csv(out);
  }
  const auto events = telemetry::read_trace_csv(csv);
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[1].kind, core::TraceEventKind::kTranslate);
  EXPECT_EQ((*events)[1].aux, 12u);

  // IOGUARD_LINT_ALLOW(LNT005: deliberately torn/garbage fixture file)
  std::ofstream(path("hdr.csv")) << "wrong,header\n1,2\n";
  EXPECT_EQ(telemetry::read_trace_csv(path("hdr.csv")).status().code(),
            StatusCode::kInvalidArgument);
  // IOGUARD_LINT_ALLOW(LNT005: deliberately torn/garbage fixture file)
  std::ofstream(path("row.csv"))
      << "slot,kind,device,vm,task,job,aux\n1,complete,0,0\n";
  EXPECT_EQ(telemetry::read_trace_csv(path("row.csv")).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(telemetry::read_trace_csv(path("nope.csv")).status().code(),
            StatusCode::kNotFound);
}

// ---- trial-level integration -----------------------------------------------

sys::TrialConfig observed_trial(std::uint64_t seed, double util = 0.5) {
  sys::TrialConfig tc;
  tc.kind = sys::SystemKind::kIoGuard;
  tc.workload.num_vms = 4;
  tc.workload.target_utilization = util;
  tc.workload.preload_fraction = 0.5;
  tc.min_jobs_per_task = 10;
  tc.trial_seed = seed;
  tc.collect_jitter = true;
  tc.collect_profile = true;
  return tc;
}

TEST(ObservabilityTrial, UnloadedPchannelHasZeroJitter) {
  // ROTA-I/O invariant: the sigma* table prescribes P-channel completion
  // slots, so a fault-free run's P-channel deviation is identically zero.
  const auto result = sys::run_trial(observed_trial(7, /*util=*/0.4));
  ASSERT_TRUE(result.jitter.collected);
  std::uint64_t p_samples = 0;
  for (const auto& h : result.jitter.p_by_vm) {
    p_samples += h.count();
    EXPECT_EQ(h.max(), 0u);
  }
  EXPECT_GT(p_samples, 0u);
  // The R-channel, by contrast, folds in queueing: some deviation exists.
  std::uint64_t r_samples = 0;
  for (const auto& h : result.jitter.r_by_vm) r_samples += h.count();
  EXPECT_GT(r_samples, 0u);
}

TEST(ObservabilityTrial, ProfilePartitionsTheHorizon) {
  const auto result = sys::run_trial(observed_trial(11));
  ASSERT_FALSE(result.profile.empty());
  for (const auto& c : result.profile) {
    EXPECT_EQ(c.total_slots(), result.horizon) << c.name;
    EXPECT_EQ(c.busy_slots + c.stall_slots + c.quiescent_slots,
              result.horizon)
        << c.name;
  }
  // The device managers are named and present exactly once each.
  std::size_t devices = 0;
  for (const auto& c : result.profile)
    if (c.name.rfind("device", 0) == 0) ++devices;
  EXPECT_EQ(devices, 4u);
}

TEST(ObservabilityTrial, ObservabilityOffLeavesResultEmpty) {
  auto tc = observed_trial(11);
  tc.collect_jitter = false;
  tc.collect_profile = false;
  const auto result = sys::run_trial(tc);
  EXPECT_FALSE(result.jitter.collected);
  EXPECT_TRUE(result.profile.empty());
  EXPECT_EQ(result.flight_dumps, 0u);
}

TEST_F(FlightTest, TrialWritesBoundedDumpsUnderFaultLoad) {
  auto tc = observed_trial(3, /*util=*/0.9);
  tc.workload.num_vms = 8;
  auto plan = faults::FaultPlan::parse("device-stall");
  ASSERT_TRUE(plan.ok());
  tc.faults = *plan;
  tc.flight_dir = dir_.string();
  tc.flight_stem = "trial0";
  tc.flight_max_dumps = 3;
  const auto result = sys::run_trial(tc);

  EXPECT_LE(result.flight_dumps, 3u);
  EXPECT_GT(result.flight_dumps, 0u);
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    ++files;
    const auto dump = telemetry::read_flight_dump(e.path().string());
    ASSERT_TRUE(dump.ok()) << e.path() << ": " << dump.status();
    EXPECT_EQ(dump->stem, "trial0");
  }
  EXPECT_EQ(files, result.flight_dumps);
}

void expect_same_series(const std::vector<HdrHistogram>& restored,
                        const std::vector<HdrHistogram>& original,
                        const char* channel) {
  ASSERT_EQ(restored.size(), original.size()) << channel;
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_TRUE(restored[i] == original[i]) << channel << " series " << i;
}

TEST_F(FlightTest, CheckpointRoundTripsObservabilityFields) {
  auto ioguard = observed_trial(5, /*util=*/0.8);
  auto legacy = ioguard;
  legacy.kind = sys::SystemKind::kLegacy;
  legacy.workload.preload_fraction = 0.0;
  for (const sys::TrialConfig& tc : {ioguard, legacy}) {
    SCOPED_TRACE(sys::to_string(tc.kind));
    const auto original = sys::run_trial(tc);
    ASSERT_TRUE(original.jitter.collected);
    ASSERT_FALSE(original.profile.empty());

    sys::CheckpointMeta meta;
    meta.config_echo = "observability-roundtrip";
    meta.fingerprint = 99;
    const std::string ck = path("ck.bin");
    {
      auto journal = sys::CheckpointJournal::open(ck, meta, /*resume=*/false);
      ASSERT_TRUE(journal.ok()) << journal.status();
      ASSERT_TRUE((*journal)->append(1, 0, false, original, nullptr).ok());
    }
    auto journal = sys::CheckpointJournal::open(ck, meta, /*resume=*/true);
    ASSERT_TRUE(journal.ok()) << journal.status();
    const sys::CheckpointRecord* rec = (*journal)->find(1, 0);
    ASSERT_NE(rec, nullptr);
    const sys::TrialResult& restored = rec->result;

    ASSERT_TRUE(restored.jitter.collected);
    // Every series of every channel; the one with samples differs by
    // system (the R-channel on I/O-GUARD, the FIFO on the baseline).
    const auto& fifo = original.jitter.fifo_by_vm;
    const auto& r = original.jitter.r_by_vm;
    const auto samples = [](const std::vector<HdrHistogram>& series) {
      std::uint64_t n = 0;
      for (const HdrHistogram& h : series) n += h.count();
      return n;
    };
    EXPECT_GT(samples(tc.kind == sys::SystemKind::kIoGuard ? r : fifo), 0u);
    expect_same_series(restored.jitter.p_by_vm, original.jitter.p_by_vm, "P");
    expect_same_series(restored.jitter.r_by_vm, r, "R");
    expect_same_series(restored.jitter.fifo_by_vm, fifo, "fifo");
    expect_same_series(restored.jitter.translator_by_device,
                       original.jitter.translator_by_device, "translator");
    ASSERT_EQ(restored.jitter.by_task.size(), original.jitter.by_task.size());
    for (std::size_t i = 0; i < original.jitter.by_task.size(); ++i) {
      EXPECT_EQ(restored.jitter.by_task[i].task,
                original.jitter.by_task[i].task);
      EXPECT_EQ(restored.jitter.by_task[i].ops, original.jitter.by_task[i].ops);
      EXPECT_EQ(restored.jitter.by_task[i].worst_slots,
                original.jitter.by_task[i].worst_slots);
    }
    ASSERT_EQ(restored.profile.size(), original.profile.size());
    for (std::size_t i = 0; i < original.profile.size(); ++i) {
      EXPECT_EQ(restored.profile[i].name, original.profile[i].name);
      EXPECT_EQ(restored.profile[i].busy_slots,
                original.profile[i].busy_slots);
      EXPECT_EQ(restored.profile[i].stall_slots,
                original.profile[i].stall_slots);
      EXPECT_EQ(restored.profile[i].quiescent_slots,
                original.profile[i].quiescent_slots);
    }
    EXPECT_EQ(restored.flight_dumps, original.flight_dumps);
  }
}

}  // namespace
}  // namespace ioguard
