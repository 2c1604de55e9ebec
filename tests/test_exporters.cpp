// Golden bytes of every exporter: trial summaries that reach each optional
// block, Perfetto traces with profile counter tracks, Prometheus text, the
// diagnostics and lint reports, and BENCH reports. Each is compared with a
// fixture under tests/data/ (tests/golden.hpp), so a change to escaping or
// number formatting shows up as a named, line-level diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "bench_json.hpp"
#include "common/appender.hpp"
#include "core/event_trace.hpp"
#include "faults/fault_plan.hpp"
#include "golden.hpp"
#include "lint/lint.hpp"
#include "system/runner.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perfetto.hpp"
#include "telemetry/prometheus.hpp"

namespace ioguard {
namespace {

namespace fs = std::filesystem;
using testing::expect_matches_golden;

/// A directory under the system temp dir, named after the running test and
/// removed again when the test ends.
class TempDir {
 public:
  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = fs::temp_directory_path() /
            (std::string("ioguard_exporters_") + info->name());
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

faults::FaultPlan plan(const std::string& spec) {
  auto parsed = faults::FaultPlan::parse(spec);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return parsed.ok() ? *parsed : faults::FaultPlan{};
}

/// A short trial with response times and the stage decomposition on.
sys::TrialConfig short_trial(sys::SystemKind kind) {
  sys::TrialConfig tc;
  tc.kind = kind;
  tc.workload.num_vms = 4;
  tc.workload.target_utilization = 0.6;
  tc.workload.preload_fraction = 0.4;
  tc.min_jobs_per_task = 5;
  tc.trial_seed = 11;
  tc.collect_response_times = true;
  tc.collect_stage_latencies = true;
  return tc;
}

std::string summary_of(const sys::TrialConfig& tc) {
  std::ostringstream os;
  sys::write_trial_summary_json(os, tc, sys::run_trial(tc));
  return os.str();
}

bool contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

// ---- trial summaries --------------------------------------------------------

TEST(ExporterGolden, SummaryIoGuardResponseTimesAndStages) {
  const std::string json = summary_of(short_trial(sys::SystemKind::kIoGuard));
  // Only RT-XEN has a VMM stage: the empty accumulator prints null.
  EXPECT_TRUE(contains(json, "\"stage_vmm_slots\": null,"));
  EXPECT_TRUE(contains(json, "\"response_slots\": {\"count\": "));
  expect_matches_golden("summary_ioguard_golden.json", json);
}

TEST(ExporterGolden, SummaryRtXenVmmStage) {
  const std::string json = summary_of(short_trial(sys::SystemKind::kRtXen));
  EXPECT_TRUE(contains(json, "\"stage_vmm_slots\": {\"count\": "));
  expect_matches_golden("summary_rtxen_golden.json", json);
}

TEST(ExporterGolden, SummaryFaultPlan) {
  sys::TrialConfig tc = short_trial(sys::SystemKind::kIoGuard);
  tc.faults = plan("mixed");
  const std::string json = summary_of(tc);
  EXPECT_TRUE(contains(json, "\"fault_plan\": \""));
  EXPECT_TRUE(contains(json, "\"faults\": {\"injected\": "));
  expect_matches_golden("summary_faults_golden.json", json);
}

TEST(ExporterGolden, SummaryModeSwitching) {
  sys::TrialConfig tc = short_trial(sys::SystemKind::kIoGuard);
  tc.workload.target_utilization = 0.8;
  tc.workload.preload_fraction = 0.5;
  tc.workload.mixed_criticality = true;
  tc.faults = plan("overrun:rate=0.05,param=40");
  tc.mode_switch.enabled = true;
  tc.mode_switch.overrun_threshold = 1;
  tc.mode_switch.recovery_hysteresis_slots = 200;
  tc.mode_switch.hi_budget_factor = 1.5;
  const std::string json = summary_of(tc);
  EXPECT_TRUE(contains(json, "\"switch_latency\": {\"count\": "));
  expect_matches_golden("summary_mode_switch_golden.json", json);
}

TEST(ExporterGolden, SummaryJitterAndProfile) {
  sys::TrialConfig tc = short_trial(sys::SystemKind::kIoGuard);
  tc.collect_jitter = true;
  tc.collect_profile = true;
  const std::string json = summary_of(tc);
  EXPECT_TRUE(contains(json, "\"jitter_cycles\": {\n"));
  EXPECT_TRUE(contains(json, "\"jitter_by_task\": {\""));
  EXPECT_TRUE(contains(json, "\"profile_slots\": {\n"));
  expect_matches_golden("summary_jitter_profile_golden.json", json);
}

TEST(ExporterGolden, JitterBeyondTheTopBucket) {
  // An overloaded trial whose R-channel jitter passes the top HDR bucket
  // (2^25 - 1 cycles): the summary clamps quantiles and max to that bound,
  // while Prometheus counts the excess only under +Inf and keeps its exact
  // values in _sum.
  telemetry::MetricsRegistry registry;
  sys::TrialConfig tc;
  tc.kind = sys::SystemKind::kIoGuard;
  tc.workload.num_vms = 4;
  tc.workload.target_utilization = 1.6;
  tc.workload.preload_fraction = 0.7;
  tc.min_jobs_per_task = 10;
  tc.trial_seed = 3;
  tc.collect_jitter = true;
  tc.metrics = &registry;
  std::ostringstream os;
  sys::write_trial_summary_json(os, tc, sys::run_trial(tc));
  telemetry::write_prometheus(os, registry);
  const std::string text = os.str();
  EXPECT_TRUE(contains(text, "\"max\": 33554431}"));
  EXPECT_TRUE(contains(text,
                       "ioguard_timing_jitter_cycles_bucket{channel=\"R\","
                       "vm=\"0\",le=\"33554431\"} 428\n"));
  EXPECT_TRUE(contains(text,
                       "ioguard_timing_jitter_cycles_bucket{channel=\"R\","
                       "vm=\"0\",le=\"+Inf\"} 442\n"));
  expect_matches_golden("jitter_beyond_top_bucket_golden.txt", text);
}

TEST(ExporterGolden, BaselineFaultedTrialSummaryAndMetrics) {
  // A BS|BV trial under the mixed plan with jitter and the profile on: the
  // FIFO bank's fault counts and fifo{d} profile rows in the summary, then
  // its ioguard_fifo_* series and "fifo" jitter histograms in Prometheus.
  telemetry::MetricsRegistry registry;
  sys::TrialConfig tc = short_trial(sys::SystemKind::kBlueVisor);
  tc.faults = plan("mixed");
  tc.collect_jitter = true;
  tc.collect_profile = true;
  tc.metrics = &registry;
  const sys::TrialResult result = sys::run_trial(tc);
  EXPECT_GT(result.faults.fifo_stalled_slots, 0u);
  EXPECT_GT(result.faults.fifo_frames_lost, 0u);
  EXPECT_GT(result.faults.transit_drops, 0u);
  std::ostringstream os;
  sys::write_trial_summary_json(os, tc, result);
  telemetry::write_prometheus(os, registry);
  const std::string text = os.str();
  EXPECT_TRUE(contains(text, "\"fifo0\": {\"busy\": "));
  EXPECT_TRUE(contains(text, "ioguard_fifo_jobs_completed_total{device=\"0\"}"));
  expect_matches_golden("baseline_faulted_golden.txt", text);
}

TEST(ExporterGolden, SummaryFlightRecorder) {
  const TempDir dir;
  sys::TrialConfig tc = short_trial(sys::SystemKind::kIoGuard);
  tc.workload.num_vms = 8;
  tc.workload.target_utilization = 0.9;
  tc.workload.preload_fraction = 0.7;
  tc.faults = plan("device-stall");
  tc.flight_dir = dir.path().string();
  tc.flight_max_dumps = 2;
  const std::string json = summary_of(tc);
  EXPECT_TRUE(contains(json, "\"flight_dumps\": 2,"));
  expect_matches_golden("summary_flight_golden.json", json);
}

// ---- Perfetto ---------------------------------------------------------------

/// Process names that need every JSON escape but `\r`.
telemetry::PerfettoOptions escaped_names(double us_per_slot) {
  telemetry::PerfettoOptions options;
  options.us_per_slot = us_per_slot;
  options.process_vms = "VM \"jobs\" \\ one\nline\ttab\x01";
  options.process_devices = "dev\\ices\t\"x\"";
  return options;
}

core::TraceEvent trace_event(Slot slot, core::TraceEventKind kind,
                             std::uint32_t vm, std::uint32_t device,
                             std::uint32_t job, std::uint32_t aux = 0) {
  core::TraceEvent e;
  e.slot = slot;
  e.kind = kind;
  e.vm = VmId{vm};
  e.device = DeviceId{device};
  e.task = TaskId{job + 100};
  e.job = JobId{job};
  e.aux = aux;
  return e;
}

TEST(ExporterGolden, PerfettoEveryEventKind) {
  using K = core::TraceEventKind;
  core::EventTrace trace(64);
  // A full lifecycle, a late job without expose/grant, a dropped job and one
  // still in flight at the end: only the first two become job slices.
  for (const core::TraceEvent& e : {
           trace_event(10, K::kSubmit, 0, 0, 1),
           trace_event(11, K::kShadowExpose, 0, 0, 1),
           trace_event(12, K::kRchannelGrant, 0, 0, 1),
           trace_event(12, K::kDeviceBegin, 0, 0, 1),
           trace_event(14, K::kComplete, 0, 0, 1),
           trace_event(20, K::kSubmit, 1, 1, 2),
           trace_event(25, K::kComplete, 1, 1, 2),
           trace_event(25, K::kDeadlineMiss, 1, 1, 2, 3),
           trace_event(30, K::kSubmit, 2, 1, 3),
           trace_event(30, K::kDrop, 2, 1, 3),
           trace_event(40, K::kSubmit, 3, 2, 4),
           trace_event(1, K::kPchannelSlot, 0, 0, 0x40000001u),
           trace_event(2, K::kPchannelSlot, 0, 0, 0x40000001u),
           trace_event(13, K::kTranslate, 0, 0, 1, 17),
           trace_event(0, K::kDemote, 1, 1, 5),
           trace_event(41, K::kFaultInject, 3, 2, 4, 1),
           trace_event(42, K::kRetry, 3, 2, 4, 1),
           trace_event(43, K::kWatchdogAbort, 3, 2, 4, 8),
           trace_event(44, K::kShed, 3, 2, 4, 2),
           trace_event(45, K::kModeSwitch, 3, 2, 4),
           trace_event(46, K::kModeRecover, 3, 2, 4),
       })
    trace.record(e);
  const std::vector<telemetry::ProfileCounterTrack> counters = {
      {"device0", 3, 1, 46}, {"transit", 0, 0, 50}};
  std::ostringstream os;
  telemetry::write_perfetto_json(os, trace, escaped_names(10.0 / 3.0),
                                 counters);
  const std::string json = os.str();
  EXPECT_TRUE(contains(json, "\"lateness_slots\":3"));
  EXPECT_TRUE(contains(json, "VM \\\"jobs\\\" \\\\ one\\nline\\ttab\\u0001"));
  expect_matches_golden("perfetto_event_kinds_golden.json", json);
}

TEST(ExporterGolden, PerfettoFaultedTrialWithProfileCounters) {
  // A small ring keeps the fixture short; what fell off it is left out
  // exactly as in a long run.
  core::EventTrace trace(250);
  sys::TrialConfig tc = short_trial(sys::SystemKind::kIoGuard);
  tc.workload.target_utilization = 0.9;
  tc.min_jobs_per_task = 3;
  tc.faults = plan("stall:rate=0.05,param=12;drop:rate=0.05;irq:rate=0.02");
  tc.collect_profile = true;
  tc.trace = &trace;
  const sys::TrialResult result = sys::run_trial(tc);

  std::vector<telemetry::ProfileCounterTrack> counters;
  for (const sys::ComponentProfile& c : result.profile)
    counters.push_back({c.name, c.busy_slots, c.stall_slots,
                        c.quiescent_slots});
  std::ostringstream os;
  telemetry::write_perfetto_json(os, trace, escaped_names(10.0), counters);
  const std::string json = os.str();
  EXPECT_TRUE(contains(json, "\"ph\":\"i\""));
  EXPECT_TRUE(contains(json, "\"ph\":\"C\""));
  expect_matches_golden("perfetto_faulted_golden.json", json);
}

// ---- Prometheus -------------------------------------------------------------

TEST(ExporterGolden, PrometheusEveryKindAndSpecialValues) {
  telemetry::MetricsRegistry registry;
  registry.counter("ioguard_jobs_total").inc(42);
  registry.counter("ioguard_jobs_total", {{"system", "I/O-GUARD"}}).inc(7);
  registry.gauge("ioguard_ratio").set(1.0 / 3.0);
  registry.gauge("ioguard_ratio", {{"vm", "1"}}).set(2.5e-7);
  registry.gauge("ioguard_nan").set(std::numeric_limits<double>::quiet_NaN());
  registry.gauge("ioguard_inf", {{"sign", "pos"}})
      .set(std::numeric_limits<double>::infinity());
  registry.gauge("ioguard_inf", {{"sign", "neg"}})
      .set(-std::numeric_limits<double>::infinity());
  registry.gauge("ioguard_big").set(123456789012345678.0);
  auto& h = registry.histogram("ioguard_latency_us",
                               {{"device", "0"}, {"channel", "R"}},
                               {0.5, 1.0 / 3.0 + 1.0, 10.0, 1e6});
  for (const double x : {0.1, 0.5, 1.2, 3.0, 2e6}) h.observe(x);
  registry.histogram("ioguard_empty", {}, {1.0});
  std::ostringstream os;
  telemetry::write_prometheus(os, registry);
  expect_matches_golden("prometheus_golden.prom", os.str());
}

// ---- diagnostics and lint ---------------------------------------------------

TEST(ExporterGolden, DiagnosticsReportJson) {
  analysis::Report report;
  report.add(analysis::DiagCode::kSigJobUnderAllocated,
             "job 3 got 1 of 2 slots: \"short\" by 1",
             "device 0 task 12\tjob 3");
  report.add(analysis::DiagCode::kResWatchdogIneffective,
             "path C:\\stall\\plan\nsecond line", "");
  report.add(analysis::DiagCode::kSupCheckSkipped,
             analysis::Severity::kInfo, "bound 1e9 > limit", "device 2");
  std::ostringstream os;
  report.render_json(os);
  expect_matches_golden("diagnostics_golden.json", os.str());
}

TEST(ExporterGolden, LintReportJson) {
  // The suppression marker, assembled so the linter does not read this file
  // as carrying one.
  const std::string allow = std::string("IOGUARD_LINT_") + "ALLOW";
  lint::Linter linter;
  linter.scan_source("src/core/we\"ird\\na\nme\t\r\x01.cpp",
                     "int a = rand();  // \"quoted\" \\ back\ttab\r\x01 end\n");
  linter.scan_source(
      "src/sched/ok.cpp",
      "int b = rand();  // " + allow +
          "(LNT001: seeded \"demo\" \\ path\t1)\n// " + allow +
          "(L\"N\\T\t9: reason)\n");
  std::ostringstream os;
  linter.render_json(os);
  EXPECT_EQ(linter.suppressed_count(), 1u);
  expect_matches_golden("lint_golden.json", os.str());
}

// ---- escapes and chunked writes ---------------------------------------------

TEST(ExporterEscapes, PerfettoWritesCarriageReturnByName) {
  core::EventTrace trace(4);
  telemetry::PerfettoOptions options;
  options.process_vms = "a\rb";
  std::ostringstream os;
  telemetry::write_perfetto_json(os, trace, options);
  EXPECT_TRUE(contains(os.str(), "\"name\":\"a\\rb\""));
  EXPECT_FALSE(contains(os.str(), "\\u000d"));
}

TEST(ExporterEscapes, DiagnosticsKeepControlBytesAsUnicodeEscapes) {
  analysis::Report report;
  report.add(analysis::DiagCode::kCfgBadFraction, "bell\x01here\rend",
             "ctx\x1f");
  std::ostringstream os;
  report.render_json(os);
  EXPECT_TRUE(contains(os.str(), "\"message\":\"bell\\u0001here\\rend\""));
  EXPECT_TRUE(contains(os.str(), "\"context\":\"ctx\\u001f\""));
}

/// Records the size of every write that reaches it.
class ChunkRecorder : public std::streambuf {
 public:
  std::vector<std::size_t> chunks;
  std::string bytes;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    chunks.push_back(static_cast<std::size_t>(n));
    bytes.append(s, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) {
      const char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
    }
    return c;
  }
};

TEST(ExporterChunks, LargeExportsReachTheStreamInChunks) {
  core::EventTrace trace(1 << 14);
  telemetry::MetricsRegistry registry;
  sys::TrialConfig tc = short_trial(sys::SystemKind::kIoGuard);
  tc.collect_jitter = true;
  tc.trace = &trace;
  tc.metrics = &registry;
  (void)sys::run_trial(tc);

  const auto check = [](const std::string& name, const ChunkRecorder& rec,
                        const std::string& whole) {
    SCOPED_TRACE(name);
    EXPECT_EQ(rec.bytes, whole);
    ASSERT_GE(rec.chunks.size(), 2u) << whole.size() << " bytes";
    for (std::size_t i = 0; i + 1 < rec.chunks.size(); ++i)
      EXPECT_GE(rec.chunks[i], Appender::kChunkBytes);
  };
  {
    ChunkRecorder rec;
    std::ostream os(&rec);
    telemetry::write_perfetto_json(os, trace);
    std::ostringstream whole;
    telemetry::write_perfetto_json(whole, trace);
    check("perfetto", rec, whole.str());
  }
  {
    // Enough series that the text passes one chunk.
    for (int i = 0; i < 2000; ++i)
      registry.gauge("ioguard_padding", {{"i", std::to_string(i)}})
          .set(i / 7.0);
    ChunkRecorder rec;
    std::ostream os(&rec);
    telemetry::write_prometheus(os, registry);
    std::ostringstream whole;
    telemetry::write_prometheus(whole, registry);
    check("prometheus", rec, whole.str());
  }
}

// ---- BENCH reports ----------------------------------------------------------

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ExporterGolden, BenchReports) {
  const TempDir dir;
  ASSERT_EQ(::setenv("IOGUARD_BENCH_OUT", dir.path().c_str(), 1), 0);

  sys::BatchTiming sweep;
  sweep.trials = 7;
  sweep.jobs = 2;
  sweep.wall_seconds = 1.23456789012345;
  sweep.trial_seconds_sum = 2.0 / 3.0 * 7.0;
  for (const double s : {0.1, 2.0 / 3.0, 1.0 / 7.0, 1e-7})
    sweep.trial_seconds.add(s);
  sys::BatchTiming untimed;  // no per-trial samples: no mean/max keys
  untimed.trials = 3;
  untimed.wall_seconds = 0.5;
  untimed.trial_seconds_sum = 0.75;

  bench::BenchReport batches("exporter_batches");
  batches.set_jobs(2);
  batches.add_stage("sweep", sweep);
  batches.add_stage("untimed", untimed);
  batches.add_stage_seconds("design", 0.000123456789123);
  batches.add_metric("event_speedup", 3.14159265358979);
  batches.add_metric("tiny", 1.5e-12);
  batches.add_metric("large", 123456789012.0);
  const std::string batches_path = batches.write();
  ASSERT_FALSE(batches_path.empty());

  bench::BenchReport seconds_only("exporter_seconds");
  seconds_only.set_jobs(1);
  seconds_only.add_stage_seconds("analytic", 0.25);
  seconds_only.add_stage_seconds("render", 1.0 / 3.0);
  const std::string seconds_path = seconds_only.write();
  ASSERT_FALSE(seconds_path.empty());

  EXPECT_EQ(batches_path,
            (dir.path() / "BENCH_exporter_batches.json").string());
  expect_matches_golden("bench_reports_golden.txt",
                        read_file(batches_path) + read_file(seconds_path));
}

}  // namespace
}  // namespace ioguard
