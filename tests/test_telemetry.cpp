// Telemetry subsystem tests: metrics registry semantics, exporter formats,
// span reconstruction from the event trace, and the runner wiring.
#include <algorithm>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/event_trace.hpp"
#include "system/runner.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perfetto.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/spans.hpp"

namespace ioguard {
namespace {

using core::EventTrace;
using core::TraceEvent;
using core::TraceEventKind;
using telemetry::LatencyHistogram;
using telemetry::Labels;
using telemetry::MetricsRegistry;

// ---------------------------------------------------------------- registry

TEST(MetricsRegistry, CounterSeriesAreDistinctPerLabels) {
  MetricsRegistry reg;
  reg.counter("jobs_total", {{"vm", "0"}}).inc(3);
  reg.counter("jobs_total", {{"vm", "1"}}).inc();
  EXPECT_EQ(reg.counter("jobs_total", {{"vm", "0"}}).value(), 3u);
  EXPECT_EQ(reg.counter("jobs_total", {{"vm", "1"}}).value(), 1u);
  EXPECT_EQ(reg.entries().size(), 2u);
}

TEST(MetricsRegistry, GaugeKeepsLastWrite) {
  MetricsRegistry reg;
  reg.gauge("busy_frac").set(0.25);
  reg.gauge("busy_frac").set(0.75);
  EXPECT_DOUBLE_EQ(reg.gauge("busy_frac").value(), 0.75);
}

TEST(MetricsRegistry, InstrumentReferencesStayStable) {
  MetricsRegistry reg;
  auto& c = reg.counter("a_total");
  // Force more family/instrument allocations, then write via the old ref.
  for (int i = 0; i < 64; ++i)
    reg.counter("churn_total", {{"i", std::to_string(i)}}).inc();
  c.inc(7);
  EXPECT_EQ(reg.counter("a_total").value(), 7u);
}

TEST(MetricsRegistry, MergeAddsCountersAndHistogramsGaugesLastWin) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("n_total").inc(2);
  b.counter("n_total").inc(5);
  a.gauge("g").set(1.0);
  b.gauge("g").set(9.0);
  a.histogram("h_slots", {}, {1.0, 2.0}).observe(0.5);
  b.histogram("h_slots", {}, {1.0, 2.0}).observe(1.5);
  a.merge(b);
  EXPECT_EQ(a.counter("n_total").value(), 7u);
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 9.0);
  EXPECT_EQ(a.histogram("h_slots", {}, {1.0, 2.0}).count(), 2u);
}

TEST(LatencyHistogram, BucketsCumulativeAndPercentile) {
  LatencyHistogram h({1.0, 2.0, 4.0});
  for (double x : {0.5, 1.5, 1.5, 3.0, 100.0}) h.observe(x);
  EXPECT_EQ(h.count(), 5u);
  ASSERT_EQ(h.counts().size(), 4u);  // 3 finite + implicit +Inf
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 2u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);  // +Inf tail
  EXPECT_EQ(h.cumulative(2), 4u);
  // Cumulative counts must be monotone.
  for (std::size_t i = 1; i < h.counts().size(); ++i)
    EXPECT_GE(h.cumulative(i), h.cumulative(i - 1));
}

TEST(MetricsRegistry, FormatLabelsCanonical) {
  EXPECT_EQ(telemetry::format_labels({}), "");
  EXPECT_EQ(telemetry::format_labels({{"a", "x"}, {"b", "y"}}),
            "{a=\"x\",b=\"y\"}");
}

// --------------------------------------------------------------- prometheus

TEST(Prometheus, TextExpositionFormat) {
  MetricsRegistry reg;
  reg.counter("ioguard_jobs_total", {{"vm", "0"}}).inc(4);
  reg.gauge("ioguard_busy_fraction").set(0.5);
  auto& h = reg.histogram("ioguard_latency_slots", {}, {1.0, 8.0});
  h.observe(0.5);
  h.observe(3.0);
  h.observe(100.0);

  std::ostringstream os;
  telemetry::write_prometheus(os, reg);
  const std::string text = os.str();

  EXPECT_NE(text.find("# TYPE ioguard_jobs_total counter"), std::string::npos);
  EXPECT_NE(text.find("ioguard_jobs_total{vm=\"0\"} 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ioguard_busy_fraction gauge"),
            std::string::npos);
  EXPECT_NE(text.find("ioguard_busy_fraction 0.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ioguard_latency_slots histogram"),
            std::string::npos);
  EXPECT_NE(text.find("ioguard_latency_slots_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ioguard_latency_slots_bucket{le=\"8\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("ioguard_latency_slots_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("ioguard_latency_slots_count 3"), std::string::npos);
  EXPECT_NE(text.find("ioguard_latency_slots_sum"), std::string::npos);
}

// -------------------------------------------------------------------- spans

/// A well-formed lifecycle for job 7 on device 0, VM 1, task 3.
void record_lifecycle(EventTrace& trace) {
  const DeviceId dev{0};
  const VmId vm{1};
  const TaskId task{3};
  const JobId job{7};
  trace.record({10, TraceEventKind::kSubmit, dev, vm, task, job, 0});
  trace.record({12, TraceEventKind::kShadowExpose, dev, vm, task, job, 0});
  trace.record({15, TraceEventKind::kRchannelGrant, dev, vm, task, job, 0});
  trace.record({15, TraceEventKind::kDeviceBegin, dev, vm, task, job, 0});
  trace.record({18, TraceEventKind::kComplete, dev, vm, task, job, 0});
}

TEST(Spans, CollectReconstructsLifecycle) {
  EventTrace trace(64);
  record_lifecycle(trace);
  const auto spans = telemetry::collect_spans(trace);
  ASSERT_EQ(spans.size(), 1u);
  const auto& s = spans[0];
  EXPECT_EQ(s.job.value, 7u);
  EXPECT_EQ(s.vm.value, 1u);
  EXPECT_EQ(s.submit, 10u);
  EXPECT_EQ(s.expose, 12u);
  EXPECT_EQ(s.first_grant, 15u);
  EXPECT_EQ(s.device_begin, 15u);
  EXPECT_EQ(s.complete, 18u);
  EXPECT_TRUE(s.finished());
  EXPECT_FALSE(s.dropped);
  EXPECT_FALSE(s.deadline_missed);
}

TEST(Spans, PchannelAndInvalidJobsAreNotSpanned) {
  EventTrace trace(64);
  // P-channel synthetic id (high bit) and an invalid id must be skipped.
  trace.record({5, TraceEventKind::kPchannelSlot, DeviceId{0}, VmId{0},
                TaskId{1}, JobId{0x40000001u}, 0});
  trace.record({5, TraceEventKind::kComplete, DeviceId{0}, VmId{0}, TaskId{1},
                JobId{0x40000001u}, 0});
  trace.record({6, TraceEventKind::kDemote, DeviceId{0}, VmId{0}, TaskId{2},
                JobId{}, 0});
  EXPECT_TRUE(telemetry::collect_spans(trace).empty());
}

TEST(Spans, DropAndDeadlineMissAnnotate) {
  EventTrace trace(64);
  trace.record({4, TraceEventKind::kDrop, DeviceId{0}, VmId{0}, TaskId{1},
                JobId{2}, 0});
  record_lifecycle(trace);
  trace.record({18, TraceEventKind::kDeadlineMiss, DeviceId{0}, VmId{1},
                TaskId{3}, JobId{7}, 5});
  const auto spans = telemetry::collect_spans(trace);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[0].dropped);
  EXPECT_EQ(spans[0].submit, 4u);  // drop slot doubles as submit time
  EXPECT_TRUE(spans[1].deadline_missed);
  EXPECT_EQ(spans[1].lateness_slots, 5u);
}

TEST(Spans, FoldStagesComputesWaits) {
  EventTrace trace(64);
  record_lifecycle(trace);
  auto b = telemetry::fold_stages(telemetry::collect_spans(trace));
  EXPECT_EQ(b.finished_jobs, 1u);
  EXPECT_EQ(b.unfinished_jobs, 0u);
  ASSERT_EQ(b.pool_wait.count(), 1u);
  EXPECT_DOUBLE_EQ(b.pool_wait.percentile(50.0), 2.0);   // 12 - 10
  EXPECT_DOUBLE_EQ(b.shadow_wait.percentile(50.0), 3.0); // 15 - 12
  EXPECT_DOUBLE_EQ(b.service.percentile(50.0), 4.0);     // 18 - 15 + 1
  EXPECT_DOUBLE_EQ(b.total.percentile(50.0), 9.0);       // 18 - 10 + 1
}

TEST(Spans, UnfinishedJobCounted) {
  EventTrace trace(64);
  trace.record({10, TraceEventKind::kSubmit, DeviceId{0}, VmId{0}, TaskId{1},
                JobId{9}, 0});
  auto b = telemetry::fold_stages(telemetry::collect_spans(trace));
  EXPECT_EQ(b.finished_jobs, 0u);
  EXPECT_EQ(b.unfinished_jobs, 1u);
  EXPECT_TRUE(b.total.empty());
}

TEST(Spans, PrintStageBreakdownRendersTable) {
  EventTrace trace(64);
  record_lifecycle(trace);
  auto b = telemetry::fold_stages(telemetry::collect_spans(trace));
  std::ostringstream os;
  telemetry::print_stage_breakdown(os, b);
  const std::string out = os.str();
  EXPECT_NE(out.find("pool wait"), std::string::npos);
  EXPECT_NE(out.find("p95"), std::string::npos);
  EXPECT_NE(out.find("1 finished"), std::string::npos);
}

TEST(Spans, RegisterSpanMetricsFillsRegistry) {
  EventTrace trace(64);
  record_lifecycle(trace);
  trace.record({18, TraceEventKind::kTranslate, DeviceId{0}, VmId{1},
                TaskId{3}, JobId{7}, 40});
  MetricsRegistry reg;
  telemetry::register_span_metrics(trace, reg);
  EXPECT_EQ(reg.counter("ioguard_trace_events_total", {{"kind", "submit"}})
                .value(),
            1u);
  EXPECT_EQ(reg.histogram("ioguard_stage_latency_slots",
                          {{"stage", "total"}, {"device", "0"}})
                .count(),
            1u);
  EXPECT_EQ(reg.histogram("ioguard_translation_cycles", {{"device", "0"}},
                          telemetry::default_cycle_buckets())
                .count(),
            1u);
}

// ----------------------------------------------------------------- perfetto

TEST(Perfetto, EmitsTracksSpansAndInstants) {
  EventTrace trace(64);
  record_lifecycle(trace);
  trace.record({20, TraceEventKind::kPchannelSlot, DeviceId{1}, VmId{0},
                TaskId{0}, JobId{0x40000001u}, 0});
  trace.record({21, TraceEventKind::kDrop, DeviceId{0}, VmId{2}, TaskId{4},
                JobId{11}, 0});

  std::ostringstream os;
  telemetry::write_perfetto_json(os, trace);
  const std::string json = os.str();

  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // job span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // drop instant
  // Balanced braces/brackets => at least structurally sane JSON.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// ------------------------------------------------------------ runner wiring

sys::TrialConfig small_trial() {
  sys::TrialConfig tc;
  tc.kind = sys::SystemKind::kIoGuard;
  tc.workload.num_vms = 4;
  tc.workload.target_utilization = 0.4;
  tc.min_jobs_per_task = 5;
  tc.trial_seed = 3;
  return tc;
}

TEST(RunnerTelemetry, TraceAndMetricsFilledWhenAttached) {
  // Large enough that no event is overwritten: every span keeps its submit.
  core::EventTrace trace(1 << 20);
  telemetry::MetricsRegistry reg;
  sys::TrialConfig tc = small_trial();
  tc.trace = &trace;
  tc.metrics = &reg;
  const auto result = sys::run_trial(tc);
  EXPECT_GT(result.jobs_counted, 0u);

  // The hypervisor recorded full lifecycles...
  ASSERT_EQ(trace.overwritten(), 0u);
  EXPECT_GT(trace.count(TraceEventKind::kSubmit), 0u);
  EXPECT_GT(trace.count(TraceEventKind::kShadowExpose), 0u);
  EXPECT_GT(trace.count(TraceEventKind::kRchannelGrant), 0u);
  EXPECT_GT(trace.count(TraceEventKind::kDeviceBegin), 0u);
  EXPECT_GT(trace.count(TraceEventKind::kComplete), 0u);
  EXPECT_GT(trace.count(TraceEventKind::kTranslate), 0u);

  // ...spans reconstruct with consistent ordering...
  const auto spans = telemetry::collect_spans(trace);
  ASSERT_FALSE(spans.empty());
  std::size_t finished = 0;
  for (const auto& s : spans) {
    if (!s.finished() || s.dropped) continue;
    ++finished;
    ASSERT_NE(s.submit, kNeverSlot);
    EXPECT_LE(s.submit, s.expose);
    EXPECT_LE(s.expose, s.first_grant);
    EXPECT_LE(s.first_grant, s.complete);
  }
  EXPECT_GT(finished, 0u);

  // ...and the registry carries both runner counters and span metrics.
  EXPECT_EQ(reg.counter("ioguard_trial_jobs_total",
                        {{"system", "I/O-GUARD"}, {"outcome", "counted"}})
                .value(),
            result.jobs_counted);
  EXPECT_GT(reg.counter("ioguard_trace_events_total", {{"kind", "complete"}})
                .value(),
            0u);
  EXPECT_GT(reg.counter("ioguard_translations_total", {{"device", "0"}})
                .value(),
            0u);
}

TEST(RunnerTelemetry, DeterministicAcrossRuns) {
  core::EventTrace t1(1 << 16);
  core::EventTrace t2(1 << 16);
  sys::TrialConfig tc = small_trial();
  tc.trace = &t1;
  (void)sys::run_trial(tc);
  tc.trace = &t2;
  (void)sys::run_trial(tc);
  ASSERT_EQ(t1.size(), t2.size());
  std::ostringstream a;
  std::ostringstream b;
  t1.dump_csv(a);
  t2.dump_csv(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(RunnerTelemetry, DisabledHooksRecordNothing) {
  sys::TrialConfig tc = small_trial();
  const auto with_off = sys::run_trial(tc);
  core::EventTrace trace(1 << 16);
  tc.trace = &trace;
  const auto with_on = sys::run_trial(tc);
  // Telemetry must not perturb the simulation.
  EXPECT_EQ(with_off.jobs_counted, with_on.jobs_counted);
  EXPECT_EQ(with_off.jobs_on_time, with_on.jobs_on_time);
  EXPECT_EQ(with_off.misses, with_on.misses);
  EXPECT_DOUBLE_EQ(with_off.goodput_bytes_per_s, with_on.goodput_bytes_per_s);
}

TEST(RunnerTelemetry, SummaryJsonHasRequiredKeys) {
  sys::TrialConfig tc = small_trial();
  tc.collect_response_times = true;
  auto result = sys::run_trial(tc);
  std::ostringstream os;
  sys::write_trial_summary_json(os, tc, result);
  const std::string json = os.str();
  for (const char* key :
       {"\"system\"", "\"horizon_slots\"", "\"jobs_counted\"",
        "\"jobs_on_time\"", "\"misses\"", "\"critical_misses\"",
        "\"dropped\"", "\"goodput_bytes_per_s\"", "\"device_busy_frac\"",
        "\"admitted\"", "\"success\"", "\"response_slots\"",
        "\"misses_by_task\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

}  // namespace
}  // namespace ioguard
