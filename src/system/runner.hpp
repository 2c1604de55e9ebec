// Single-trial full-system simulator (Sec. V-C methodology).
//
// One trial = one workload instance executed for `horizon` slots on one of
// the four system architectures. The trial succeeds when no safety or
// function task misses a deadline ("success ratio recorded the percentage of
// trials that executed successfully"). I/O throughput counts the payload of
// jobs completed by their deadlines (goodput).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/jitter.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "core/event_trace.hpp"
#include "core/hypervisor.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "iodev/fifo_controller.hpp"
#include "system/config.hpp"
#include "telemetry/metrics.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"

namespace ioguard::sys {

struct TrialConfig {
  SystemKind kind = SystemKind::kIoGuard;
  workload::CaseStudyConfig workload;  ///< preload_fraction: 0 for baselines
  Slot horizon = 0;                    ///< 0 = derive from min_jobs_per_task
  std::size_t min_jobs_per_task = 50;  ///< paper: >= 250 per 100 s run
  std::uint64_t trial_seed = 1;
  Calibration cal;
  core::GschedPolicy gsched_policy = core::GschedPolicy::kServerEdf;
  bool collect_response_times = false;
  bool collect_stage_latencies = false;  ///< fill TrialResult::stage_*

  // --- fault injection (empty plan = bit-identical fault-free baseline) ---
  faults::FaultPlan faults;
  faults::ResilienceConfig resilience;

  // --- mixed-criticality mode switching (DESIGN.md §17) -------------------
  /// Disabled by default: trials stay byte-identical to pre-MCS builds.
  /// When enabled (I/O-GUARD back-end only), translator WCET overruns
  /// switch the affected VM LO->HI, shed its LO R-channel backlog and
  /// inflate its server budget; recovery is hysteretic.
  core::ModeSwitchConfig mode_switch;

  /// The single validated construction path for trial configs: every range
  /// check the benches / run_point / CLI preflight used to duplicate lives
  /// here. Returns the config unchanged when valid.
  [[nodiscard]] static StatusOr<TrialConfig> validated(TrialConfig raw);

  // --- telemetry hooks (both off by default: zero overhead) ---------------
  /// Attached to the hypervisor as its on-chip trace buffer (I/O-GUARD
  /// back-end only; not owned).
  core::EventTrace* trace = nullptr;
  /// Filled with run counters/gauges/histograms at the end of the trial
  /// (not owned; pass the same registry across trials to aggregate).
  telemetry::MetricsRegistry* metrics = nullptr;

  // --- timing-accuracy observability (DESIGN.md §14) ----------------------
  /// Record per-operation jitter (intended vs actual delivery slot) at the
  /// P-/R-channel, FIFO and translator completion points into
  /// TrialResult::jitter (and `ioguard_timing_jitter_cycles` when a metrics
  /// registry is attached).
  bool collect_jitter = false;
  /// Fill TrialResult::profile with per-component busy/stall/quiescent slot
  /// attribution (cycle-attribution profiler).
  bool collect_profile = false;
  /// Flight recorder: when non-empty, deadline misses and fault recoveries
  /// dump the last FlightRecorderConfig::last_n trace events + scheduler
  /// state into bounded per-trial files under this directory (I/O-GUARD
  /// only; the directory must exist). A trial without an attached trace gets
  /// a private ring just for the recorder.
  std::string flight_dir;
  std::string flight_stem = "trial0";  ///< per-trial filename stem
  std::size_t flight_max_dumps = 4;

  // --- execution mode (DESIGN.md §15) -------------------------------------
  /// Force the retained slot-stepped reference loop instead of the
  /// event-driven next-slot advance. Both modes are bit-identical by
  /// contract (results, telemetry, checkpoints, flight dumps); the stepped
  /// loop exists as the trusted oracle CI diffs the calendar path against,
  /// and as an escape hatch (`ioguard_cli --stepped`).
  bool stepped = false;
};

/// Mixed-criticality outcome of one trial (TrialConfig::mode_switch). All
/// fields stay 0 when the feature is disabled, so pre-MCS TrialResults
/// compare equal; `hi_misses` is maintained whenever the workload carries
/// HI tasks (it is the 0-admitted-HI-misses acceptance gate).
struct ModeSwitchCounters {
  std::uint64_t switches_to_hi = 0;   ///< LO->HI transitions applied
  std::uint64_t recoveries = 0;       ///< HI->LO hysteresis recoveries
  std::uint64_t propagated = 0;       ///< switches via block escalation
  std::uint64_t overruns_observed = 0;///< translator WCET overrun evidence
  std::uint64_t lo_jobs_shed = 0;     ///< LO backlog shed by switches
  std::uint64_t lo_rejected = 0;      ///< LO submissions refused in HI mode
  std::uint64_t hi_vms_at_end = 0;    ///< VMs still in HI mode at horizon
  std::uint64_t hi_misses = 0;        ///< deadline misses of HI tasks
  SampleSet switch_latency_slots;     ///< first evidence -> switch applied
};

/// One component's slot attribution (TrialConfig::collect_profile); the
/// three counters sum to the trial horizon for every component.
struct ComponentProfile {
  std::string name;
  std::uint64_t busy_slots = 0;
  std::uint64_t stall_slots = 0;
  std::uint64_t quiescent_slots = 0;
  [[nodiscard]] std::uint64_t total_slots() const {
    return busy_slots + stall_slots + quiescent_slots;
  }
};

struct TrialResult {
  Slot horizon = 0;
  std::uint64_t jobs_counted = 0;       ///< jobs with deadline inside horizon
  std::uint64_t jobs_on_time = 0;
  std::uint64_t misses = 0;             ///< all classes
  std::uint64_t critical_misses = 0;    ///< safety + function tasks only
  std::uint64_t dropped = 0;            ///< queue-overflow rejections
  double goodput_bytes_per_s = 0.0;
  double device_busy_frac = 0.0;
  bool admitted = true;                 ///< I/O-GUARD: Theorems 2/4 held
  SampleSet response_slots;             ///< critical tasks, when collected
  /// (TaskId value, miss count) of every task with misses, ascending by
  /// task. Compacted from a dense per-task array at end of trial, so miss
  /// accounting on the hot path is an indexed increment, not a map insert.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> misses_by_task;

  // Per-stage latency decomposition (slots) of *critical* (safety/function)
  // jobs, filled when collect_stage_latencies is set. "backend" covers
  // device queueing + service (+ scheduler wait on I/O-GUARD). Synthetic
  // background jobs are excluded: EDF deliberately defers them, which would
  // swamp the means without saying anything about timeliness.
  OnlineStats stage_issue;    ///< release -> left the core's issue stage
  OnlineStats stage_vmm;      ///< issue -> left the VMM (RT-XEN only)
  OnlineStats stage_transit;  ///< VMM/issue -> arrived at the back-end
  OnlineStats stage_backend;  ///< arrival -> completion at the device

  faults::FaultCounters faults;  ///< all-zero unless the trial ran a plan
  ModeSwitchCounters mcs;  ///< all-zero unless mode switching was enabled

  // --- timing-accuracy observability (empty unless collected) -------------
  JitterSummary jitter;
  std::vector<ComponentProfile> profile;
  std::uint64_t flight_dumps = 0;  ///< flight-recorder files written

  /// Paper's per-trial success criterion.
  [[nodiscard]] bool success() const { return critical_misses == 0; }
};

/// What a trial's seed fixes besides its back-end: the case-study config
/// (the workload seed derived from the trial seed, and no pre-defined tasks
/// on the baselines, which have no P-channel to run them) and the seed of
/// the release trace. run_trial and run_cosim take both from here, and
/// ioguard_cli the workload.
struct TrialSeeds {
  workload::CaseStudyConfig workload;
  std::uint64_t arrival_seed = 0;
};
[[nodiscard]] TrialSeeds seed_trial(SystemKind kind,
                                    workload::CaseStudyConfig workload,
                                    std::uint64_t trial_seed);

/// The HypervisorConfig fields `cal` sets, for `num_vms` VMs; the caller
/// adds policy, faults and mode switching.
[[nodiscard]] core::HypervisorConfig hypervisor_config(const Calibration& cal,
                                                       std::size_t num_vms);

/// The baselines' device back-end under `cal`: one FIFO controller per
/// case-study device, device d being fault site d of `injector` (nullable).
[[nodiscard]] iodev::FifoBank fifo_bank(const Calibration& cal,
                                        faults::FaultInjector* injector);

/// Runs one trial. Deterministic in (config).
TrialResult run_trial(const TrialConfig& config);

/// Machine-readable run summary (one JSON object): configuration echo,
/// outcome counters, and -- when collected -- response-time percentiles and
/// the per-stage latency decomposition. Percentiles are extracted without
/// mutating `result` (nth_element on a scratch copy), so one result can be
/// summarized and still aggregated afterwards.
void write_trial_summary_json(std::ostream& os, const TrialConfig& config,
                              const TrialResult& result);

}  // namespace ioguard::sys
