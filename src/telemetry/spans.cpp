#include "telemetry/spans.hpp"

#include <ostream>
#include <string>
#include <unordered_map>

#include "common/table.hpp"

namespace ioguard::telemetry {

namespace {

/// P-channel completions carry hypervisor-generated ids (high bit set, see
/// PChannel); they have no submit/grant lifecycle and are not spanned.
bool pchannel_job_id(JobId id) { return (id.value & 0x40000000u) != 0; }

}  // namespace

std::vector<JobSpan> collect_spans(const core::EventTrace& trace) {
  std::vector<JobSpan> spans;
  // Span order comes from the trace's own event order, so no hash order
  // can reach the artifact.
  // IOGUARD_LINT_ALLOW(LNT003: lookup-only scratch index, never iterated)
  std::unordered_map<std::uint32_t, std::size_t> index;  // JobId -> spans idx

  auto span_for = [&](const core::TraceEvent& e) -> JobSpan& {
    auto [it, fresh] = index.emplace(e.job.value, spans.size());
    if (fresh) {
      JobSpan s;
      s.job = e.job;
      s.task = e.task;
      s.vm = e.vm;
      s.device = e.device;
      spans.push_back(s);
    }
    return spans[it->second];
  };

  const std::size_t n = trace.size();
  for (std::size_t i = 0; i < n; ++i) {
    const core::TraceEvent& e = trace.ordered(i);
    if (!e.job.valid() || pchannel_job_id(e.job)) continue;
    switch (e.kind) {
      case core::TraceEventKind::kSubmit:
        span_for(e).submit = e.slot;
        break;
      case core::TraceEventKind::kDrop: {
        JobSpan& s = span_for(e);
        s.submit = s.submit == kNeverSlot ? e.slot : s.submit;
        s.dropped = true;
        break;
      }
      case core::TraceEventKind::kShadowExpose: {
        JobSpan& s = span_for(e);
        if (s.expose == kNeverSlot) s.expose = e.slot;
        break;
      }
      case core::TraceEventKind::kRchannelGrant: {
        JobSpan& s = span_for(e);
        if (s.first_grant == kNeverSlot) s.first_grant = e.slot;
        break;
      }
      case core::TraceEventKind::kDeviceBegin: {
        JobSpan& s = span_for(e);
        if (s.device_begin == kNeverSlot) s.device_begin = e.slot;
        break;
      }
      case core::TraceEventKind::kComplete:
        span_for(e).complete = e.slot;
        break;
      case core::TraceEventKind::kDeadlineMiss: {
        JobSpan& s = span_for(e);
        s.deadline_missed = true;
        s.lateness_slots = e.aux;
        break;
      }
      case core::TraceEventKind::kTranslate:
      case core::TraceEventKind::kPchannelSlot:
      case core::TraceEventKind::kDemote:
      case core::TraceEventKind::kFaultInject:
      case core::TraceEventKind::kRetry:
      case core::TraceEventKind::kWatchdogAbort:
      case core::TraceEventKind::kShed:
      case core::TraceEventKind::kModeSwitch:
      case core::TraceEventKind::kModeRecover:
        break;  // no lifecycle phase
    }
  }
  return spans;
}

StageBreakdown fold_stages(const std::vector<JobSpan>& spans) {
  StageBreakdown out;
  for (const JobSpan& s : spans) {
    if (s.dropped) {
      ++out.dropped_jobs;
      continue;
    }
    if (!s.finished()) {
      ++out.unfinished_jobs;
      continue;
    }
    ++out.finished_jobs;
    if (s.deadline_missed) ++out.missed_jobs;
    if (s.submit == kNeverSlot) continue;  // head lost to ring overwrite
    if (s.expose != kNeverSlot && s.expose >= s.submit)
      out.pool_wait.add(static_cast<double>(s.expose - s.submit));
    if (s.expose != kNeverSlot && s.first_grant != kNeverSlot &&
        s.first_grant >= s.expose)
      out.shadow_wait.add(static_cast<double>(s.first_grant - s.expose));
    const Slot begin = s.device_begin != kNeverSlot ? s.device_begin
                                                    : s.first_grant;
    if (begin != kNeverSlot && s.complete >= begin)
      out.service.add(static_cast<double>(s.complete - begin + 1));
    out.total.add(static_cast<double>(s.complete - s.submit + 1));
  }
  return out;
}

void print_stage_breakdown(std::ostream& os, StageBreakdown& b,
                           double us_per_slot) {
  TextTable table({"stage", "jobs", "p50 (us)", "p95 (us)", "max (us)"});
  auto row = [&](const char* name, SampleSet& set) {
    if (set.empty()) {
      table.add(std::string(name), 0, "-", "-", "-");
      return;
    }
    table.add(std::string(name), set.count(),
              fmt_double(set.percentile(50.0) * us_per_slot, 1),
              fmt_double(set.percentile(95.0) * us_per_slot, 1),
              fmt_double(set.max() * us_per_slot, 1));
  };
  row("pool wait (submit->shadow)", b.pool_wait);
  row("sched wait (shadow->grant)", b.shadow_wait);
  row("service (device slots)", b.service);
  row("total (submit->complete)", b.total);
  table.render(os);
  os << b.finished_jobs << " finished, " << b.unfinished_jobs
     << " still in flight, " << b.dropped_jobs << " dropped, "
     << b.missed_jobs << " deadline misses\n";
}

void register_span_metrics(const core::EventTrace& trace,
                           MetricsRegistry& registry) {
  // Raw event-kind totals (includes events overwritten in the ring).
  // Fault/resilience and mode-transition kinds appear only when they
  // occurred, so the exported metric set of a run that never engaged those
  // features is byte-identical to pre-fault / pre-MCS builds.
  for (auto kind : core::all_trace_event_kinds()) {
    if (core::is_conditional_kind(kind) && trace.count(kind) == 0) continue;
    registry
        .counter("ioguard_trace_events_total",
                 {{"kind", core::to_string(kind)}})
        .inc(trace.count(kind));
  }

  // Per-device stage histograms from the reconstructed spans.
  const auto spans = collect_spans(trace);
  auto observe = [&](const char* stage, DeviceId dev, double slots) {
    registry
        .histogram("ioguard_stage_latency_slots",
                   {{"stage", stage}, {"device", std::to_string(dev.value)}})
        .observe(slots);
  };
  for (const JobSpan& s : spans) {
    const std::string dev = std::to_string(s.device.value);
    if (s.dropped) {
      registry.counter("ioguard_jobs_dropped_total", {{"device", dev}}).inc();
      continue;
    }
    if (s.deadline_missed)
      registry.counter("ioguard_deadline_misses_total", {{"device", dev}})
          .inc();
    if (!s.finished() || s.submit == kNeverSlot) continue;
    if (s.expose != kNeverSlot && s.expose >= s.submit)
      observe("pool_wait", s.device,
              static_cast<double>(s.expose - s.submit));
    if (s.expose != kNeverSlot && s.first_grant != kNeverSlot &&
        s.first_grant >= s.expose)
      observe("sched_wait", s.device,
              static_cast<double>(s.first_grant - s.expose));
    const Slot begin = s.device_begin != kNeverSlot ? s.device_begin
                                                    : s.first_grant;
    if (begin != kNeverSlot && s.complete >= begin)
      observe("service", s.device,
              static_cast<double>(s.complete - begin + 1));
    observe("total", s.device, static_cast<double>(s.complete - s.submit + 1));
  }

  // Translator sub-slot costs (aux payload of kTranslate events still in
  // the ring).
  const std::size_t n = trace.size();
  for (std::size_t i = 0; i < n; ++i) {
    const core::TraceEvent& e = trace.ordered(i);
    if (e.kind != core::TraceEventKind::kTranslate) continue;
    registry
        .histogram("ioguard_translation_cycles",
                   {{"device", std::to_string(e.device.value)}},
                   default_cycle_buckets())
        .observe(static_cast<double>(e.aux));
  }
}

}  // namespace ioguard::telemetry
