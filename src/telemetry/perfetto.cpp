#include "telemetry/perfetto.hpp"

#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <string_view>

#include "common/appender.hpp"
#include "telemetry/spans.hpp"

namespace ioguard::telemetry {

namespace {

constexpr int kVmPid = 1;
constexpr int kDevicePid = 2;

/// Timestamps and durations in microseconds, as `os << v` at precision 15.
constexpr int kUsDigits = 15;

}  // namespace

void write_perfetto_json(std::ostream& os, const core::EventTrace& trace,
                         const PerfettoOptions& options,
                         const std::vector<ProfileCounterTrack>& profile) {
  std::string buf;
  Appender a(&buf);
  a.put("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  // Opens one event object: `{"ph":"<ph>"`; the caller closes it with '}'.
  const auto begin = [&](std::string_view ph) {
    a.write_to(os);
    a.put(first ? "  {\"ph\":\"" : ",\n  {\"ph\":\"").put(ph).put_char('"');
    first = false;
  };
  const auto track = [&](int pid, std::uint64_t tid) {
    a.put(",\"pid\":").put_int(pid).put(",\"tid\":").put_int(tid);
  };
  const auto metadata = [&](std::string_view name, int pid, std::uint64_t tid) {
    begin("M");
    a.put(",\"name\":\"").put(name).put_char('"');
    track(pid, tid);
    a.put(",\"args\":{\"name\":\"");
  };

  // ---- Track metadata: one thread per VM, one per device. ----------------
  std::set<std::uint32_t> vms, devices;
  const std::size_t n = trace.size();
  for (std::size_t i = 0; i < n; ++i) {
    const core::TraceEvent& e = trace.ordered(i);
    if (e.vm.valid()) vms.insert(e.vm.value);
    if (e.device.valid()) devices.insert(e.device.value);
  }
  metadata("process_name", kVmPid, 0);
  a.put_json_escaped(options.process_vms).put("\"}}");
  metadata("process_name", kDevicePid, 0);
  a.put_json_escaped(options.process_devices).put("\"}}");
  for (std::uint32_t vm : vms) {
    metadata("thread_name", kVmPid, vm);
    a.put("VM ").put_int(vm).put("\"}}");
  }
  for (std::uint32_t dev : devices) {
    metadata("thread_name", kDevicePid, dev);
    a.put("device ").put_int(dev).put("\"}}");
  }

  const double us = options.us_per_slot;

  // ---- VM tracks: one complete ("X") event per finished job span. --------
  for (const JobSpan& s : collect_spans(trace)) {
    if (!s.vm.valid()) continue;
    if (s.dropped || s.submit == kNeverSlot) continue;
    if (!s.finished()) continue;
    begin("X");
    a.put(",\"name\":\"job ").put_int(s.job.value).put(" (task ")
        .put_int(s.task.value).put(")\",\"cat\":\"")
        .put(s.deadline_missed ? "job,missed" : "job").put_char('"');
    track(kVmPid, s.vm.value);
    a.put(",\"ts\":").put_general(static_cast<double>(s.submit) * us, kUsDigits)
        .put(",\"dur\":")
        .put_general(static_cast<double>(s.complete + 1 - s.submit) * us,
                     kUsDigits)
        .put(",\"args\":{\"device\":").put_int(s.device.value);
    if (s.expose != kNeverSlot)
      a.put(",\"shadow_expose_slot\":").put_int(s.expose);
    if (s.first_grant != kNeverSlot)
      a.put(",\"first_grant_slot\":").put_int(s.first_grant);
    if (s.deadline_missed)
      a.put(",\"lateness_slots\":").put_int(s.lateness_slots);
    a.put("}}");
  }

  // ---- Device tracks: slot-aligned channel activity + instants. ----------
  for (std::size_t i = 0; i < n; ++i) {
    const core::TraceEvent& e = trace.ordered(i);
    const auto ts = static_cast<double>(e.slot) * us;
    switch (e.kind) {
      case core::TraceEventKind::kPchannelSlot:
      case core::TraceEventKind::kRchannelGrant: {
        begin("X");
        if (e.kind == core::TraceEventKind::kPchannelSlot)
          a.put(",\"name\":\"P-channel\",\"cat\":\"pchannel\"");
        else
          a.put(",\"name\":\"R-grant vm").put_int(e.vm.value)
              .put("\",\"cat\":\"rchannel\"");
        track(kDevicePid, e.device.value);
        a.put(",\"ts\":").put_general(ts, kUsDigits)
            .put(",\"dur\":").put_general(us, kUsDigits).put_char('}');
        break;
      }
      case core::TraceEventKind::kDrop:
      case core::TraceEventKind::kDeadlineMiss:
      case core::TraceEventKind::kDemote:
      case core::TraceEventKind::kFaultInject:
      case core::TraceEventKind::kRetry:
      case core::TraceEventKind::kWatchdogAbort:
      case core::TraceEventKind::kShed: {
        begin("i");
        a.put(",\"s\":\"t\",\"name\":\"")
            .put_json_escaped(core::to_string(e.kind))
            .put(" task ").put_int(e.task.value).put("\",\"cat\":\"alert\"");
        track(kDevicePid, e.device.value);
        a.put(",\"ts\":").put_general(ts, kUsDigits).put_char('}');
        break;
      }
      default:
        break;
    }
  }

  // ---- Cycle-attribution counters (one "C" sample per component). --------
  for (const ProfileCounterTrack& c : profile) {
    begin("C");
    a.put(",\"name\":\"profile ").put_json_escaped(c.name).put_char('"');
    track(kDevicePid, 0);
    a.put(",\"ts\":0,\"args\":{\"busy\":").put_int(c.busy)
        .put(",\"stall\":").put_int(c.stall)
        .put(",\"quiescent\":").put_int(c.quiescent).put("}}");
  }

  a.put("\n]}\n").write_to(os, 0);
}

}  // namespace ioguard::telemetry
