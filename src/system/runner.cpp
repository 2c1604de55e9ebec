#include "system/runner.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <memory>
#include <ostream>
#include <queue>
#include <string>
#include <string_view>
#include <utility>

#include "common/appender.hpp"
#include "common/check.hpp"
#include "system/stages.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/spans.hpp"

namespace ioguard::sys {

namespace {

/// A request in flight between pipeline stages, due at `arrival`.
struct InFlight {
  Slot arrival;
  workload::Job job;
};
struct ArriveLater {
  bool operator()(const InFlight& a, const InFlight& b) const {
    return a.arrival != b.arrival
               ? a.arrival > b.arrival
               : a.job.id.value > b.job.id.value;
  }
};

/// Per-trace-job bookkeeping for miss accounting.
struct Outcome {
  Slot deadline = 0;
  bool counted = false;    ///< deadline falls inside the horizon
  bool critical = false;   ///< safety or function class
  bool hi = false;         ///< HI-criticality task (mixed-criticality runs)
  bool on_time = false;
  std::uint32_t payload = 0;
  std::uint32_t task = 0;
};

/// End-of-trial export into the caller's MetricsRegistry. Counters add up
/// across trials sharing one registry; gauges keep the last trial's value.
/// Fault/resilience metric block; called only when an injector was active,
/// so fault-free Prometheus output stays byte-identical to pre-fault builds.
void fill_fault_metrics(telemetry::MetricsRegistry& reg,
                        const TrialConfig& config, const TrialResult& result,
                        const faults::FaultInjector& injector) {
  using telemetry::Labels;
  for (faults::FaultKind kind : faults::all_fault_kinds()) {
    if (config.faults.rate(kind) <= 0.0) continue;  // kind not in the plan
    reg.counter("ioguard_faults_injected_total",
                {{"kind", faults::to_string(kind)}})
        .inc(injector.injected(kind));
  }
  auto action = [&](const char* a) -> telemetry::Counter& {
    return reg.counter("ioguard_resilience_actions_total", {{"action", a}});
  };
  action("watchdog_abort").inc(result.faults.watchdog_aborts);
  action("retry").inc(result.faults.retries);
  action("retry_exhausted").inc(result.faults.retries_exhausted);
  action("shed").inc(result.faults.jobs_shed);
  reg.counter("ioguard_fault_stalled_slots_total", {})
      .inc(result.faults.stalled_slots + result.faults.fifo_stalled_slots);
  reg.counter("ioguard_fault_lost_frames_total", {})
      .inc(result.faults.frame_faults + result.faults.fifo_frames_lost);
  reg.counter("ioguard_fault_transit_drops_total", {})
      .inc(result.faults.transit_drops);
  reg.gauge("ioguard_degraded_vms", {})
      .set(static_cast<double>(result.faults.degraded_vms));
}

void fill_metrics(telemetry::MetricsRegistry& reg, const TrialConfig& config,
                  const TrialResult& result) {
  using telemetry::Labels;
  const Labels sys_label{{"system", to_string(config.kind)}};

  auto outcome = [&](const char* o) {
    return Labels{{"system", to_string(config.kind)}, {"outcome", o}};
  };
  reg.counter("ioguard_trial_jobs_total", outcome("counted"))
      .inc(result.jobs_counted);
  reg.counter("ioguard_trial_jobs_total", outcome("on_time"))
      .inc(result.jobs_on_time);
  reg.counter("ioguard_trial_jobs_total", outcome("missed"))
      .inc(result.misses);
  reg.counter("ioguard_trial_jobs_total", outcome("critical_miss"))
      .inc(result.critical_misses);
  reg.counter("ioguard_trial_jobs_total", outcome("dropped"))
      .inc(result.dropped);

  reg.gauge("ioguard_trial_goodput_bytes_per_second", sys_label)
      .set(result.goodput_bytes_per_s);
  reg.gauge("ioguard_trial_device_busy_fraction", sys_label)
      .set(result.device_busy_frac);
  reg.gauge("ioguard_trial_admitted", sys_label)
      .set(result.admitted ? 1.0 : 0.0);
  reg.gauge("ioguard_trial_horizon_slots", sys_label)
      .set(static_cast<double>(result.horizon));
}

/// Per-device counters of each back-end (the registry sorts its series, so
/// they print in the same place whenever they are filled).
void fill_device_metrics(telemetry::MetricsRegistry& reg,
                         const core::Hypervisor& hyp) {
  using telemetry::Labels;
  for (std::size_t d = 0; d < hyp.device_count(); ++d) {
    const auto& vm = hyp.manager(DeviceId{static_cast<std::uint32_t>(d)});
    const std::string dev = std::to_string(d);
    const Labels dev_label{{"device", dev}};
    reg.counter("ioguard_device_busy_slots_total", dev_label)
        .inc(vm.busy_slots());
    reg.counter("ioguard_device_runtime_jobs_completed_total", dev_label)
        .inc(vm.runtime_jobs_completed());
    reg.counter("ioguard_translations_total", dev_label)
        .inc(vm.request_translator().translations());
    reg.gauge("ioguard_translation_worst_cycles", dev_label)
        .set(static_cast<double>(vm.request_translator().worst_observed()));
    for (std::size_t v = 0; v < vm.num_vms(); ++v) {
      const Labels dv{{"device", dev}, {"vm", std::to_string(v)}};
      reg.counter("ioguard_pool_dropped_total", dv).inc(vm.pool(v).dropped());
      reg.counter("ioguard_gsched_granted_slots_total", dv)
          .inc(static_cast<std::uint64_t>(vm.gsched().granted(v)));
      reg.counter("ioguard_gsched_slack_slots_total", dv)
          .inc(static_cast<std::uint64_t>(vm.gsched().slack_granted(v)));
    }
  }
}

void fill_device_metrics(telemetry::MetricsRegistry& reg,
                         const iodev::FifoBank& fifos) {
  for (std::size_t d = 0; d < fifos.device_count(); ++d) {
    const iodev::FifoController& f =
        fifos.manager(DeviceId{static_cast<std::uint32_t>(d)});
    const telemetry::Labels dev_label{{"device", std::to_string(d)}};
    reg.counter("ioguard_fifo_jobs_completed_total", dev_label)
        .inc(f.jobs_completed());
    reg.counter("ioguard_fifo_bytes_completed_total", dev_label)
        .inc(f.bytes_completed());
    reg.counter("ioguard_fifo_rejected_total", dev_label).inc(f.rejected());
  }
}

/// The prefix of each back-end's per-device profile rows.
const char* device_row(const core::Hypervisor& /*hyp*/) { return "device"; }
const char* device_row(const iodev::FifoBank& /*fifos*/) { return "fifo"; }

/// Jitter/profile export (DESIGN.md §14). Each jitter histogram is loaded
/// bucket by bucket into a LatencyHistogram over the HDR bounds, its values
/// beyond the top bucket as the +Inf bucket and its exact sum as _sum (an
/// integer below 2^53, so the double is exact). Emits nothing when the
/// trial collected nothing, keeping observability-off runs byte-identical
/// to older builds.
void fill_observability_metrics(telemetry::MetricsRegistry& reg,
                                const TrialConfig& config,
                                const TrialResult& result) {
  using telemetry::Labels;
  if (result.jitter.collected) {
    const std::vector<double> bounds = HdrHistogram::bounds();
    std::vector<std::uint64_t> counts;
    auto load = [&](const char* channel, const char* key,
                    const std::vector<HdrHistogram>& series) {
      for (std::size_t i = 0; i < series.size(); ++i) {
        const HdrHistogram::Raw& raw = series[i].raw();
        counts.assign(raw.counts.begin(), raw.counts.end());
        counts.push_back(raw.beyond_top);
        telemetry::LatencyHistogram snapshot(bounds);
        snapshot.load(counts, static_cast<double>(raw.sum));
        reg.histogram("ioguard_timing_jitter_cycles",
                      {{"channel", channel}, {key, std::to_string(i)}},
                      bounds)
            .merge(snapshot);
      }
    };
    const JitterSummary& j = result.jitter;
    load("P", "vm", j.p_by_vm);
    load("R", "vm", j.r_by_vm);
    load("fifo", "vm", j.fifo_by_vm);
    load("translator", "device", j.translator_by_device);
  }
  for (const auto& c : result.profile) {
    auto state = [&](const char* s, std::uint64_t slots) {
      reg.counter("ioguard_profile_cycles_total",
                  {{"component", c.name}, {"state", s}})
          .inc(slots * config.cal.cycles_per_slot);
    };
    state("busy", c.busy_slots);
    state("stall", c.stall_slots);
    state("quiescent", c.quiescent_slots);
  }
  if (!config.flight_dir.empty())
    reg.counter("ioguard_flight_dumps_total", {}).inc(result.flight_dumps);
}

/// Mixed-criticality metric block (DESIGN.md §17). Called whenever the
/// feature flag is on, not when a counter happens to be non-zero: every
/// series is registered even at zero, so metric baselines cannot become
/// order-dependent on whether a switch fired in a particular trial.
void fill_mode_metrics(telemetry::MetricsRegistry& reg,
                       const TrialResult& result) {
  auto dir = [&](const char* d) -> telemetry::Counter& {
    return reg.counter("ioguard_mode_switches_total", {{"direction", d}});
  };
  dir("to_hi").inc(result.mcs.switches_to_hi);
  dir("to_lo").inc(result.mcs.recoveries);
  reg.counter("ioguard_mode_switches_propagated_total", {})
      .inc(result.mcs.propagated);
  reg.counter("ioguard_mode_overruns_observed_total", {})
      .inc(result.mcs.overruns_observed);
  reg.counter("ioguard_mode_lo_jobs_shed_total", {})
      .inc(result.mcs.lo_jobs_shed);
  reg.counter("ioguard_mode_lo_rejected_total", {})
      .inc(result.mcs.lo_rejected);
  reg.counter("ioguard_mode_hi_misses_total", {}).inc(result.mcs.hi_misses);
  reg.gauge("ioguard_mode_hi_vms", {})
      .set(static_cast<double>(result.mcs.hi_vms_at_end));
  auto& latency =
      reg.histogram("ioguard_mode_switch_latency_slots", {},
                    HdrHistogram::bounds());
  for (double v : result.mcs.switch_latency_slots.samples())
    latency.observe(v);
}

}  // namespace

StatusOr<TrialConfig> TrialConfig::validated(TrialConfig raw) {
  const auto& w = raw.workload;
  if (w.num_vms < 1 || w.num_vms > 64)
    return InvalidArgumentError("num_vms must be in [1, 64], got " +
                                std::to_string(w.num_vms));
  if (!(w.target_utilization > 0.0) || w.target_utilization > 2.0)
    return OutOfRangeError("target_utilization must be in (0, 2], got " +
                           std::to_string(w.target_utilization));
  if (w.preload_fraction < 0.0 || w.preload_fraction > 1.0)
    return OutOfRangeError("preload_fraction must be in [0, 1], got " +
                           std::to_string(w.preload_fraction));
  if (raw.min_jobs_per_task < 1)
    return InvalidArgumentError("min_jobs_per_task must be >= 1");
  if (raw.cal.cycles_per_slot == 0)
    return InvalidArgumentError("cycles_per_slot must be > 0");
  if (raw.resilience.watchdog_timeout_slots == 0)
    return InvalidArgumentError("watchdog_timeout_slots must be > 0");
  if (raw.resilience.retry_backoff_base_slots < 1)
    return InvalidArgumentError("retry_backoff_base_slots must be >= 1");
  if (raw.resilience.max_retries > 16)
    return OutOfRangeError("max_retries must be <= 16, got " +
                           std::to_string(raw.resilience.max_retries));
  if (raw.mode_switch.enabled) {
    if (raw.mode_switch.overrun_threshold < 1)
      return InvalidArgumentError("mode_switch.overrun_threshold must be >= 1");
    if (raw.mode_switch.recovery_hysteresis_slots < 1)
      return InvalidArgumentError(
          "mode_switch.recovery_hysteresis_slots must be >= 1");
    if (!(raw.mode_switch.hi_budget_factor >= 1.0))
      return OutOfRangeError(
          "mode_switch.hi_budget_factor must be >= 1.0, got " +
          std::to_string(raw.mode_switch.hi_budget_factor));
  }
  return raw;
}

TrialSeeds seed_trial(SystemKind kind, workload::CaseStudyConfig workload,
                      std::uint64_t trial_seed) {
  if (kind != SystemKind::kIoGuard) workload.preload_fraction = 0.0;
  workload.seed = trial_seed * 1000003ULL + 17;
  return TrialSeeds{workload, trial_seed * 2654435761ULL + 99};
}

core::HypervisorConfig hypervisor_config(const Calibration& cal,
                                         std::size_t num_vms) {
  core::HypervisorConfig hc;
  hc.num_vms = num_vms;
  hc.pool_capacity = cal.pool_capacity;
  hc.dispatch_overhead_slots = cal.dispatch_overhead_slots;
  hc.translator.wcet_cycles = cal.translation_wcet_cycles;
  return hc;
}

iodev::FifoBank fifo_bank(const Calibration& cal,
                          faults::FaultInjector* injector) {
  return iodev::FifoBank(workload::kCaseStudyDeviceCount,
                         cal.device_fifo_capacity,
                         cal.dispatch_overhead_slots, injector);
}

TrialResult run_trial(const TrialConfig& config) {
  // ---- 1. Build the workload and the release trace. ----------------------
  const TrialSeeds seeds =
      seed_trial(config.kind, config.workload, config.trial_seed);
  const auto wl = workload::build_case_study(seeds.workload);

  TrialResult result;
  const Slot horizon =
      config.horizon > 0
          ? config.horizon
          : workload::horizon_for_min_jobs(wl.tasks, config.min_jobs_per_task);
  result.horizon = horizon;

  workload::ArrivalConfig arr;
  arr.horizon = horizon;
  arr.seed = seeds.arrival_seed;
  const auto trace = workload::generate_trace(wl.tasks, arr);

  // Task class lookup (task ids are dense).
  std::vector<workload::TaskClass> task_class(wl.tasks.size());
  std::vector<std::uint8_t> task_hi(wl.tasks.size(), 0);
  for (const auto& t : wl.tasks.tasks()) {
    task_class[t.id.value] = t.cls;
    task_hi[t.id.value] = t.hi_criticality() ? 1 : 0;
  }
  auto is_critical = [&](TaskId id) {
    return task_class[id.value] != workload::TaskClass::kSynthetic;
  };
  auto is_hi = [&](TaskId id) { return task_hi[id.value] != 0; };

  // ---- 2. Instantiate the software stages. -------------------------------
  const std::size_t num_vms = seeds.workload.num_vms;
  const Calibration& cal = config.cal;

  std::vector<IssueStage> issue;
  issue.reserve(num_vms);
  for (std::size_t v = 0; v < num_vms; ++v)
    issue.emplace_back(issue_cycles(cal, config.kind), cal.cycles_per_slot);

  std::unique_ptr<VmmStage> vmm;
  if (config.kind == SystemKind::kRtXen)
    vmm = std::make_unique<VmmStage>(cal, num_vms, config.trial_seed ^ 0xabc);

  TransitModel request_transit(cal, config.kind, num_vms,
                               seeds.workload.target_utilization,
                               config.trial_seed ^ 0x111);
  TransitModel response_transit(cal, config.kind, num_vms,
                                seeds.workload.target_utilization,
                                config.trial_seed ^ 0x222);

  // Fault injector: only constructed for a non-empty plan so the fault-free
  // path takes zero extra branches inside the components (null injector).
  std::unique_ptr<faults::FaultInjector> injector;
  if (!config.faults.empty())
    injector = std::make_unique<faults::FaultInjector>(config.faults,
                                                       config.trial_seed);

  // Jitter tap (DESIGN.md §14), attached to the device back-end below.
  std::unique_ptr<JitterRecorder> jitter;
  if (config.collect_jitter)
    jitter = std::make_unique<JitterRecorder>(num_vms, cal.cycles_per_slot);

  // ---- 3. The trial on one device back-end. ------------------------------
  // Instantiated once for the I/O-GUARD hypervisor and once for the
  // baselines' FIFO bank, which answer the same calls; nothing below
  // branches on which one it drives.
  auto drive = [&](auto& backend) {
    if (jitter) backend.set_jitter_recorder(jitter.get());

    // Slot attribution of the runner-owned software stages. A stage is busy
    // in a slot when it holds work at the start of that slot (it spends
    // issue/VMM cycles there), quiescent otherwise; the transit link is
    // busy while any transfer is in flight. These single-server stages
    // never stall, so their stall count stays 0; the device back-ends
    // attribute their own slots internally.
    std::vector<std::uint64_t> issue_busy;
    std::uint64_t vmm_busy = 0;
    std::uint64_t transit_busy = 0;
    if (config.collect_profile) issue_busy.assign(num_vms, 0);

    // Miss accounting setup.
    std::vector<Outcome> outcomes(trace.size());
    // Dense per-task miss counters (task ids are dense); compacted into
    // result.misses_by_task at tally so the hot path never touches a map.
    std::vector<std::uint32_t> miss_counts(wl.tasks.size(), 0);
    std::uint64_t bytes_on_time = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const auto& j = trace[i];
      // Tasks the P-channel actually owns execute from the Time Slot Table
      // and emit their own completions; their trace entries are skipped
      // entirely. (Pre-defined tasks the hypervisor demoted flow through the
      // R-channel like run-time jobs.)
      outcomes[i].deadline = j.absolute_deadline;
      outcomes[i].counted =
          !backend.pchannel_task(j.task) && j.absolute_deadline <= horizon;
      outcomes[i].critical = is_critical(j.task);
      outcomes[i].hi = is_hi(j.task);
      outcomes[i].payload = j.payload_bytes;
      outcomes[i].task = j.task.value;
    }

    auto record_completion = [&](const workload::Job& job, Slot finish) {
      if (backend.pchannel_task(job.task)) {
        // P-channel jobs carry synthetic ids: they are counted here, not
        // through the trace's outcomes.
        if (job.absolute_deadline <= horizon) {
          ++result.jobs_counted;
          if (finish <= job.absolute_deadline) {
            ++result.jobs_on_time;
            bytes_on_time += job.payload_bytes;
          } else {
            ++result.misses;
            ++miss_counts[job.task.value];
            if (is_critical(job.task)) ++result.critical_misses;
            if (is_hi(job.task)) ++result.mcs.hi_misses;
          }
        }
      } else if (job.id.value < outcomes.size()) {
        Outcome& o = outcomes[job.id.value];
        if (o.counted && finish <= o.deadline) {
          o.on_time = true;
          bytes_on_time += o.payload;
        }
      }
      if (config.collect_response_times && is_critical(job.task))
        result.response_slots.add(static_cast<double>(finish - job.release));
    };

    // Pre-size the scratch buffers so the per-slot loop never reallocates.
    std::vector<InFlight> transit_storage;
    transit_storage.reserve(64);
    std::priority_queue<InFlight, std::vector<InFlight>, ArriveLater>
        transit_q(ArriveLater{}, std::move(transit_storage));
    std::vector<workload::Job> issued, vmm_done;
    issued.reserve(num_vms);
    vmm_done.reserve(num_vms);
    std::vector<iodev::Completion> completions;
    completions.reserve(workload::kCaseStudyDeviceCount);
    std::size_t next_release = 0;

    // Stage timestamps per trace job (kNeverSlot = not reached).
    std::vector<Slot> t_issue, t_vmm, t_arrive;
    if (config.collect_stage_latencies) {
      t_issue.assign(trace.size(), kNeverSlot);
      t_vmm.assign(trace.size(), kNeverSlot);
      t_arrive.assign(trace.size(), kNeverSlot);
    }
    auto stamp = [&](std::vector<Slot>& v, JobId id, Slot now) {
      if (config.collect_stage_latencies && id.value < v.size())
        v[id.value] = now;
    };

    // Event-driven advance (DESIGN.md §15): the loop body is stepped exactly
    // as before, but when everything in flight is provably quiescent the
    // cursor jumps to the next interesting slot (release, transit arrival,
    // or device wake hint) and the gap is batch-attributed. `config.stepped`
    // pins the advance to +1, retaining the slot-stepped loop as the
    // reference oracle.
    // IOGUARD_LINT_ALLOW(LNT009: sanctioned stepped-reference main loop)
    for (Slot now = 0; now < horizon;) {
      // (a) releases -> per-VM issue stage (runtime jobs only on I/O-GUARD).
      while (next_release < trace.size() &&
             trace[next_release].release <= now) {
        const auto& j = trace[next_release++];
        if (!backend.pchannel_task(j.task)) issue[j.vm.value].push(j);
      }

      if (config.collect_profile) {
        for (std::size_t v = 0; v < num_vms; ++v)
          if (!issue[v].idle()) ++issue_busy[v];
        if (vmm && !vmm->idle()) ++vmm_busy;
      }

      // (b) issue stages emit; requests enter the VMM (RT-XEN) or transit.
      // An idle stage's tick does nothing, so it is not called.
      issued.clear();
      for (auto& stage : issue)
        if (!stage.idle()) stage.tick_slot(issued);
      for (const auto& j : issued) {
        stamp(t_issue, j.id, now);
        if (vmm) {
          vmm->push(j, now);
        } else {
          transit_q.push(InFlight{now + request_transit.sample(), j});
        }
      }
      if (vmm) {
        vmm_done.clear();
        vmm->tick_slot(now, vmm_done);
        for (const auto& j : vmm_done) {
          stamp(t_vmm, j.id, now);
          transit_q.push(InFlight{now + request_transit.sample(), j});
        }
      }

      if (config.collect_profile && !transit_q.empty()) ++transit_busy;

      // (c) arrivals reach the device back-end.
      while (!transit_q.empty() && transit_q.top().arrival <= now) {
        const workload::Job j = transit_q.top().job;
        transit_q.pop();
        // Interconnect fault surface: a fired kLinkFlitLoss eats the request
        // packet in transit -- it never reaches the back-end, so the job can
        // only miss (mirrors a whole-packet drop in the NoC model).
        if (injector && injector->drop_packet(j.device.value)) {
          ++result.faults.transit_drops;
          if (config.trace) {
            core::TraceEvent ev;
            ev.slot = now;
            ev.kind = core::TraceEventKind::kFaultInject;
            ev.device = j.device;
            ev.vm = j.vm;
            ev.task = j.task;
            ev.job = j.id;
            ev.aux =
                static_cast<std::uint32_t>(faults::FaultKind::kLinkFlitLoss);
            config.trace->record(ev);
          }
          continue;
        }
        stamp(t_arrive, j.id, now);
        // Overflow: the job is lost -> miss.
        if (!backend.submit(j, now)) ++result.dropped;
      }

      // (d) the device back-end advances one slot.
      completions.clear();
      backend.tick_slot(now, completions);
      for (const auto& done : completions) {
        record_completion(done.job,
                          done.completed_at + response_transit.sample());
        if (config.collect_stage_latencies &&
            done.job.id.value < t_issue.size() &&
            is_critical(done.job.task) &&
            t_issue[done.job.id.value] != kNeverSlot) {
          const auto id = done.job.id.value;
          const Slot issued_at = t_issue[id];
          result.stage_issue.add(
              static_cast<double>(issued_at - done.job.release));
          Slot after_sw = issued_at;
          if (vmm && t_vmm[id] != kNeverSlot) {
            result.stage_vmm.add(static_cast<double>(t_vmm[id] - issued_at));
            after_sw = t_vmm[id];
          }
          if (t_arrive[id] != kNeverSlot) {
            result.stage_transit.add(
                static_cast<double>(t_arrive[id] - after_sw));
            result.stage_backend.add(
                static_cast<double>(done.completed_at - t_arrive[id]));
          }
        }
      }

      // (e) advance. Default is the next-event jump; it only engages when
      // the software pipeline is drained (issue stages + VMM idle), so every
      // skipped slot would have been a provable no-op in the stepped loop:
      // releases are drained through `now` (a), transit arrivals through
      // `now` (c), and the back-end wake hint bounds the first slot a device
      // could execute or mutate anything. Skipped slots are batch-attributed
      // as quiescent so busy + stall + quiescent == horizon still holds
      // exactly.
      Slot next = now + 1;
      if (!config.stepped) {
        bool software_busy = vmm && !vmm->idle();
        if (!software_busy) {
          for (const auto& stage : issue) {
            if (!stage.idle()) {
              software_busy = true;
              break;
            }
          }
        }
        if (!software_busy) {
          Slot wake = horizon;
          if (next_release < trace.size())
            wake = std::min(wake, trace[next_release].release);
          if (!transit_q.empty())
            wake = std::min(wake, transit_q.top().arrival);
          wake = std::min(wake, backend.next_busy_slot(next));
          if (wake > next) {
            const Slot skipped = std::min(wake, horizon) - next;
            // In-flight packets keep the transit stage "busy" for the
            // profiler even across a jump (their composition cannot change
            // in the gap).
            if (config.collect_profile && !transit_q.empty())
              transit_busy += skipped;
            backend.note_skipped_slots(skipped);
            next += skipped;
          }
        }
      }
      now = next;
    }

    // ---- 4. Tally. ---------------------------------------------------------
    for (const auto& o : outcomes) {
      if (!o.counted) continue;
      ++result.jobs_counted;
      if (o.on_time) {
        ++result.jobs_on_time;
      } else {
        ++result.misses;
        ++miss_counts[o.task];
        if (o.critical) ++result.critical_misses;
        if (o.hi) ++result.mcs.hi_misses;
      }
    }
    for (std::uint32_t task = 0; task < miss_counts.size(); ++task)
      if (miss_counts[task] > 0)
        result.misses_by_task.emplace_back(task, miss_counts[task]);
    const double seconds =
        cycles_to_seconds(slots_to_cycles(horizon, cal.cycles_per_slot));
    result.goodput_bytes_per_s = static_cast<double>(bytes_on_time) / seconds;

    const std::size_t n_dev = workload::kCaseStudyDeviceCount;
    auto device = [&](std::size_t d) -> const auto& {
      return backend.manager(DeviceId{static_cast<std::uint32_t>(d)});
    };
    Slot busy = 0;
    for (std::size_t d = 0; d < n_dev; ++d) busy += device(d).busy_slots();
    result.device_busy_frac = static_cast<double>(busy) /
                              static_cast<double>(horizon * n_dev);

    // The loop counted its own transit drops; the back-end's counters join
    // them, and the injector knows how many faults fired.
    if (injector) {
      result.faults += backend.fault_counters();
      result.faults.injected_total = injector->total_injected();
    }

    // ---- 5. Profile harvest (DESIGN.md §14). ------------------------------
    if (config.collect_profile) {
      auto add = [&](std::string name, std::uint64_t busy_n,
                     std::uint64_t stall_n, std::uint64_t quiescent_n) {
        result.profile.push_back(
            ComponentProfile{std::move(name), busy_n, stall_n, quiescent_n});
      };
      for (std::size_t v = 0; v < num_vms; ++v)
        add("issue_vm" + std::to_string(v), issue_busy[v], 0,
            horizon - issue_busy[v]);
      if (vmm) add("vmm", vmm_busy, 0, horizon - vmm_busy);
      add("transit", transit_busy, 0, horizon - transit_busy);
      for (std::size_t d = 0; d < n_dev; ++d)
        add(device_row(backend) + std::to_string(d), device(d).busy_slots(),
            device(d).profile_stall_slots(),
            device(d).profile_quiescent_slots());
    }
    if (config.metrics) fill_device_metrics(*config.metrics, backend);
  };

  if (config.kind == SystemKind::kIoGuard) {
    core::HypervisorConfig hc = hypervisor_config(cal, num_vms);
    hc.policy = config.gsched_policy;
    hc.injector = injector.get();
    hc.resilience = config.resilience;
    hc.mode_switch = config.mode_switch;
    core::Hypervisor hyp(wl, hc);
    result.admitted = hyp.fully_admitted();
    if (config.trace) hyp.set_tracer(config.trace);
    // Event-driven mode skips provably-quiescent managers inside tick_slot
    // too (per-device wake calendar) -- the cursor jump only helps when
    // *every* device sleeps at once.
    if (!config.stepped) hyp.set_slot_skipping(true);

    // Flight recorder (I/O-GUARD back-end only): observes the trace ring; a
    // trial without an attached trace gets a private ring just for it.
    std::unique_ptr<core::EventTrace> flight_ring_storage;
    std::unique_ptr<telemetry::FlightRecorder> flight;
    core::EventTrace* flight_ring = nullptr;
    if (!config.flight_dir.empty()) {
      flight_ring = config.trace;
      if (flight_ring == nullptr) {
        flight_ring_storage = std::make_unique<core::EventTrace>(4096);
        hyp.set_tracer(flight_ring_storage.get());
        flight_ring = flight_ring_storage.get();
      }
      telemetry::FlightRecorderConfig fr;
      fr.dir = config.flight_dir;
      fr.stem = config.flight_stem;
      fr.max_dumps = config.flight_max_dumps;
      flight = std::make_unique<telemetry::FlightRecorder>(std::move(fr));
      flight->set_state_writer(
          [&hyp](std::ostream& os) { hyp.dump_scheduler_state(os); });
      flight_ring->set_observer(flight.get());
    }

    drive(hyp);

    // Mixed-criticality harvest (DESIGN.md §17); the controller exists only
    // when the feature was enabled.
    if (const core::ModeController* mc = hyp.mode_controller()) {
      result.mcs.switches_to_hi = mc->switches_to_hi();
      result.mcs.recoveries = mc->recoveries();
      result.mcs.propagated = mc->propagated_switches();
      result.mcs.overruns_observed = mc->overruns_observed();
      result.mcs.lo_jobs_shed = hyp.mode_jobs_shed();
      result.mcs.lo_rejected = hyp.lo_mode_rejected();
      result.mcs.hi_vms_at_end = mc->hi_vms();
      for (const Slot latency : mc->switch_latencies())
        result.mcs.switch_latency_slots.add(static_cast<double>(latency));
    }
    if (flight_ring != nullptr) {
      flight_ring->set_observer(nullptr);
      result.flight_dumps = flight->dumps_written();
    }
  } else {
    iodev::FifoBank fifos = fifo_bank(cal, injector.get());
    drive(fifos);
  }

  // ---- 6. Observability harvest (DESIGN.md §14). -------------------------
  if (jitter) result.jitter = jitter->harvest();
  if (config.metrics) {
    fill_metrics(*config.metrics, config, result);
    fill_observability_metrics(*config.metrics, config, result);
    if (config.mode_switch.enabled)
      fill_mode_metrics(*config.metrics, result);
    if (injector)
      fill_fault_metrics(*config.metrics, config, result, *injector);
    if (config.trace)
      telemetry::register_span_metrics(*config.trace, *config.metrics);
  }
  return result;
}

namespace {

constexpr int kDigits = 15;  ///< doubles print as `os << v` at precision 15

/// `  "key": `, the start of every top-level line.
Appender& put_key(Appender& a, std::string_view key) {
  return a.put("  \"").put(key).put("\": ");
}

/// A top-level number; NaN prints as null.
void put_kv(Appender& a, std::string_view key, double v) {
  put_key(a, key);
  if (std::isnan(v)) {
    a.put("null");
  } else {
    a.put_general(v, kDigits);
  }
  a.put(",\n");
}

void put_kv(Appender& a, std::string_view key, std::uint64_t v) {
  put_key(a, key).put_int(v).put(",\n");
}

/// `{"a": 1, "b": 2` -- an object of integers, left open for the caller.
Appender& put_int_fields(
    Appender& a,
    std::initializer_list<std::pair<std::string_view, std::uint64_t>> fields) {
  std::string_view sep = "{\"";
  for (const auto& [name, v] : fields) {
    a.put(sep).put(name).put("\": ").put_int(v);
    sep = ", \"";
  }
  return a;
}

/// null, or the count, mean and extrema of `s`.
void put_stats(Appender& a, std::string_view key, const OnlineStats& s) {
  put_key(a, key);
  if (s.count() == 0) {
    a.put("null");
  } else {
    a.put("{\"count\": ").put_int(s.count())
        .put(", \"mean\": ").put_general(s.mean(), kDigits)
        .put(", \"min\": ").put_general(s.min(), kDigits)
        .put(", \"max\": ").put_general(s.max(), kDigits).put_char('}');
  }
  a.put(",\n");
}

/// null, or the count, mean, the named percentiles and the max of `s`.
void put_samples(
    Appender& a, const SampleSet& s,
    std::initializer_list<std::pair<std::string_view, double>> percentiles) {
  if (s.empty()) {
    a.put("null");
    return;
  }
  a.put("{\"count\": ").put_int(s.count())
      .put(", \"mean\": ").put_general(s.mean(), kDigits);
  for (const auto& [name, p] : percentiles)
    a.put(", \"").put(name).put("\": ").put_general(s.percentile(p), kDigits);
  a.put(", \"max\": ").put_general(s.max(), kDigits).put_char('}');
}

/// One channel's HDR quantile record inside the "jitter_cycles" block, from
/// the merge of its per-VM (or per-device) histograms (two-space extra
/// indent: these keys nest one level deeper than the top level).
void put_hdr(Appender& a, std::string_view key,
             const std::vector<HdrHistogram>& series, bool last = false) {
  HdrHistogram h;
  for (const HdrHistogram& s : series) h.merge(s);
  a.put("    \"").put(key).put("\": ");
  if (h.count() == 0) {
    a.put("null");
  } else {
    put_int_fields(a, {{"count", h.count()},
                       {"p50", h.value_at_percentile(50.0)},
                       {"p99", h.value_at_percentile(99.0)},
                       {"p999", h.value_at_percentile(99.9)},
                       {"p9999", h.value_at_percentile(99.99)},
                       {"max", h.max()}})
        .put_char('}');
  }
  a.put(last ? "\n" : ",\n");
}

}  // namespace

void write_trial_summary_json(std::ostream& os, const TrialConfig& config,
                              const TrialResult& result) {
  std::string buf;
  Appender a(&buf);
  a.put("{\n  \"system\": \"").put_json_escaped(to_string(config.kind))
      .put("\",\n");
  put_kv(a, "num_vms", static_cast<std::uint64_t>(config.workload.num_vms));
  put_kv(a, "target_utilization", config.workload.target_utilization);
  put_kv(a, "preload_fraction", config.workload.preload_fraction);
  put_kv(a, "trial_seed", config.trial_seed);
  put_kv(a, "horizon_slots", static_cast<std::uint64_t>(result.horizon));
  put_kv(a, "jobs_counted", result.jobs_counted);
  put_kv(a, "jobs_on_time", result.jobs_on_time);
  put_kv(a, "misses", result.misses);
  put_kv(a, "critical_misses", result.critical_misses);
  put_kv(a, "dropped", result.dropped);
  put_kv(a, "goodput_bytes_per_s", result.goodput_bytes_per_s);
  put_kv(a, "device_busy_frac", result.device_busy_frac);
  put_key(a, "admitted").put(result.admitted ? "true" : "false").put(",\n");
  put_key(a, "success").put(result.success() ? "true" : "false").put(",\n");

  put_key(a, "response_slots");
  put_samples(a, result.response_slots,
              {{"p50", 50.0}, {"p95", 95.0}, {"p99", 99.0}, {"p999", 99.9}});
  a.put(",\n");

  put_stats(a, "stage_issue_slots", result.stage_issue);
  put_stats(a, "stage_vmm_slots", result.stage_vmm);
  put_stats(a, "stage_transit_slots", result.stage_transit);
  put_stats(a, "stage_backend_slots", result.stage_backend);

  // Fault block only for trials that ran a plan, so fault-free summaries
  // stay byte-identical to pre-fault builds.
  if (!config.faults.empty()) {
    put_key(a, "fault_plan").put_char('"')
        .put_json_escaped(config.faults.spec_string()).put("\",\n");
    const faults::FaultCounters& fc = result.faults;
    put_int_fields(put_key(a, "faults"),
                   {{"injected", fc.injected_total},
                    {"watchdog_aborts", fc.watchdog_aborts},
                    {"retries", fc.retries},
                    {"retries_exhausted", fc.retries_exhausted},
                    {"max_retry_attempt", fc.max_retry_attempt},
                    {"jobs_shed", fc.jobs_shed},
                    {"degraded_vms", fc.degraded_vms},
                    {"frame_faults", fc.frame_faults},
                    {"stalled_slots", fc.stalled_slots},
                    {"spurious_irq_slots", fc.spurious_irq_slots},
                    {"transit_drops", fc.transit_drops},
                    {"fifo_frames_lost", fc.fifo_frames_lost},
                    {"fifo_stalled_slots", fc.fifo_stalled_slots}})
        .put("},\n");
  }

  // Mixed-criticality block only when the feature flag is on, so pre-MCS
  // summaries stay byte-identical. Inside the block every field always
  // appears (even at zero) -- same no-order-dependence rule as the metrics.
  if (config.mode_switch.enabled) {
    const ModeSwitchCounters& mc = result.mcs;
    put_int_fields(put_key(a, "mcs"),
                   {{"switches_to_hi", mc.switches_to_hi},
                    {"recoveries", mc.recoveries},
                    {"propagated", mc.propagated},
                    {"overruns_observed", mc.overruns_observed},
                    {"lo_jobs_shed", mc.lo_jobs_shed},
                    {"lo_rejected", mc.lo_rejected},
                    {"hi_vms_at_end", mc.hi_vms_at_end},
                    {"hi_misses", mc.hi_misses}})
        .put(", \"switch_latency\": ");
    put_samples(a, mc.switch_latency_slots, {{"p50", 50.0}, {"p99", 99.0}});
    a.put("},\n");
  }

  // Observability blocks appear only when collected, so plain trials keep
  // byte-identical summaries.
  if (result.jitter.collected) {
    put_key(a, "jitter_cycles").put("{\n");
    put_hdr(a, "P", result.jitter.p_by_vm);
    put_hdr(a, "R", result.jitter.r_by_vm);
    put_hdr(a, "fifo", result.jitter.fifo_by_vm);
    put_hdr(a, "translator", result.jitter.translator_by_device,
            /*last=*/true);
    a.put("  },\n");
    put_key(a, "jitter_by_task").put_char('{');
    std::string_view sep;
    for (const auto& t : result.jitter.by_task) {
      a.put(sep).put_char('"').put_int(t.task).put("\": ");
      put_int_fields(a, {{"ops", t.ops}, {"worst_slots", t.worst_slots}})
          .put_char('}')
          .write_to(os);
      sep = ", ";
    }
    a.put("},\n");
  }
  if (!result.profile.empty()) {
    put_key(a, "profile_slots").put("{\n");
    for (std::size_t i = 0; i < result.profile.size(); ++i) {
      const ComponentProfile& c = result.profile[i];
      a.put("    \"").put_json_escaped(c.name).put("\": ");
      put_int_fields(a, {{"busy", c.busy_slots},
                         {"stall", c.stall_slots},
                         {"quiescent", c.quiescent_slots}})
          .put(i + 1 < result.profile.size() ? "},\n" : "}\n");
    }
    a.put("  },\n");
  }
  if (!config.flight_dir.empty())
    put_kv(a, "flight_dumps", result.flight_dumps);

  put_key(a, "misses_by_task").put_char('{');
  std::string_view sep;
  for (const auto& [task, count] : result.misses_by_task) {
    a.put(sep).put_char('"').put_int(task).put("\": ").put_int(count)
        .write_to(os);
    sep = ", ";
  }
  a.put("}\n}\n").write_to(os, 0);
}

}  // namespace ioguard::sys
