// Top-level I/O-GUARD hypervisor (Sec. II-III).
//
// One virtualization manager + virtualization driver pair per connected I/O
// device ("the hypervisor contained 2 groups of virtualization managers and
// virtualization drivers" in the 16-VM/2-I/O evaluation configuration).
// Processors submit I/O jobs directly to the hypervisor over dedicated
// links -- no routers/arbiters on the path -- and the response channel is
// pass-through.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/vmanager.hpp"
#include "sched/server_design.hpp"
#include "sched/slot_table.hpp"
#include "workload/generator.hpp"

namespace ioguard::core {

/// Design-time summary of one device's scheduling fabric.
struct DeviceDesign {
  DeviceId device;
  iodev::DeviceSpec spec;
  bool table_feasible = false;
  bool servers_feasible = false;
  Slot hyperperiod = 0;
  Slot free_slots = 0;
  std::vector<sched::ServerParams> servers;
  std::string note;
};

/// One device's offline design up to server synthesis: its Time Slot Table
/// and the per-VM task sets its periodic servers must serve.
struct DevicePlan {
  /// Pre-defined tasks the table places: the P-channel's tasks.
  workload::TaskSet predefined;
  /// Pre-defined tasks demoted to the R-channel, in demotion order.
  workload::TaskSet demoted;
  /// Why the first placement failed; empty when nothing was demoted.
  std::string table_failure;
  sched::TimeSlotTable table{1};
  /// Per VM: its run-time and demoted tasks, each WCET charged with the
  /// per-job dispatch overhead (capped at the deadline).
  std::vector<workload::TaskSet> vm_tasks;
};

/// Plans device `dev` of `wl`. When the pre-defined tasks do not place, the
/// least critical, largest-utilization one is demoted to the R-channel until
/// the rest do -- a designer would do exactly this at integration time.
/// `dispatch_overhead_slots` is then charged onto every R-channel task, so
/// the analysis sees what the hardware executes. core::Hypervisor and the
/// static verifier (analysis::build_experiment_artifacts) both design from
/// this plan.
[[nodiscard]] DevicePlan plan_device(const workload::CaseStudyWorkload& wl,
                                     DeviceId dev, std::size_t num_vms,
                                     Slot dispatch_overhead_slots);

struct HypervisorConfig {
  std::size_t num_vms = 4;
  std::size_t pool_capacity = 16;
  GschedPolicy policy = GschedPolicy::kServerEdf;
  TranslatorConfig translator;
  sched::ServerDesignConfig server_design;
  /// Per-job device occupancy of translation/controller setup.
  Slot dispatch_overhead_slots = 1;
  /// Optional fault injection (not owned; nullptr = fault-free baseline).
  /// Each device manager becomes fault site `DeviceId.value`.
  faults::FaultInjector* injector = nullptr;
  faults::ResilienceConfig resilience;
  /// Mixed-criticality mode switching (DESIGN.md §17); inert by default.
  ModeSwitchConfig mode_switch;
};

/// The hardware hypervisor: routes submissions by device and advances all
/// virtualization managers in lock-step with the global timer.
class Hypervisor {
 public:
  /// Builds the hypervisor for a case-study workload: per device, the
  /// pre-defined tasks get an offline Time Slot Table and the run-time tasks
  /// get synthesized periodic servers (Theorems 2/4). Infeasible server
  /// designs fall back to utilization-proportional budgets (the hardware
  /// still runs; the analysis just gives no guarantee -- mirrors running an
  /// over-utilized system on real hardware).
  Hypervisor(const workload::CaseStudyWorkload& wl,
             const HypervisorConfig& config);

  /// Submits a run-time job (arrives over the processor-hypervisor link).
  /// False when the target pool is full.
  [[nodiscard]] bool submit(const workload::Job& job, Slot now);

  /// Advances one scheduler slot on every device manager; completions are
  /// appended to `out`.
  void tick_slot(Slot now, std::vector<iodev::Completion>& out);

  /// Earliest slot >= `from` at which any device manager has work (min over
  /// managers' wake hints); kNeverSlot when every channel is idle forever.
  [[nodiscard]] Slot next_busy_slot(Slot from) const;

  /// Batch-attributes `n` skipped slots as quiescent on every manager
  /// (event-driven runner; see VirtManager::note_skipped_slots).
  void note_skipped_slots(std::uint64_t n);

  /// Event-driven mode (DESIGN.md §15): managers whose wake hint lies in the
  /// future are skipped inside tick_slot (their slot batch-attributed as
  /// quiescent) instead of paying a full dense tick. Off by default so the
  /// stepped reference and existing direct users keep the dense path; the
  /// runner switches it on per trial. Results are bit-identical either way:
  /// a manager is only skipped when its tick would have been a pure
  /// ++quiescent no-op. The dense path also checks every manager's
  /// event-maintained shadows and table cursor every slot
  /// (VirtManager::set_bookkeeping_checks); this switch turns that off.
  void set_slot_skipping(bool on);

  [[nodiscard]] const std::vector<DeviceDesign>& designs() const {
    return designs_;
  }
  [[nodiscard]] VirtManager& manager(DeviceId device);
  [[nodiscard]] const VirtManager& manager(DeviceId device) const;
  [[nodiscard]] std::size_t device_count() const { return managers_.size(); }

  /// True when every device's table and servers passed admission.
  [[nodiscard]] bool fully_admitted() const;

  [[nodiscard]] std::uint64_t dropped_jobs() const;

  /// Every device manager's fault/resilience counters, summed.
  [[nodiscard]] faults::FaultCounters fault_counters() const;

  // ---- Mixed-criticality mode switching (DESIGN.md §17) ------------------
  /// The block's mode controller; nullptr when mode switching is disabled.
  [[nodiscard]] const ModeController* mode_controller() const {
    return mode_.get();
  }
  /// LO submissions rejected while their VM was HI, across all devices.
  [[nodiscard]] std::uint64_t lo_mode_rejected() const;
  /// LO jobs shed by mode switches, across all devices.
  [[nodiscard]] std::uint64_t mode_jobs_shed() const;

  /// Attaches one trace buffer to every device manager (not owned). Design
  /// decisions taken at init (P-channel -> R-channel demotions) are replayed
  /// into the buffer as kDemote events so the trace tells the whole story.
  void set_tracer(EventTrace* tracer);

  /// Attaches one jitter recorder to every device manager (not owned;
  /// nullptr detaches).
  void set_jitter_recorder(JitterRecorder* recorder);

  /// Writes the scheduler state as flight-recorder `state,...` lines
  /// (DESIGN.md §14): per (device, VM) pool backlog / degradation / grant
  /// counts plus per-device retry-queue depth, in device-then-VM order so
  /// dumps are deterministic.
  void dump_scheduler_state(std::ostream& os) const;

  /// Is this task executed by a P-channel (it was pre-defined AND its table
  /// placement succeeded)? Pre-defined tasks that could not be placed are
  /// demoted to the R-channel; their jobs must be submitted like run-time
  /// jobs.
  [[nodiscard]] bool pchannel_task(TaskId task) const {
    // Dense bitmap, not a hash set: the runner asks this once per trace job
    // per release and once per completion, so the probe is on the hot path.
    return task.value < pchannel_tasks_.size() &&
           pchannel_tasks_[task.value] != 0;
  }

 private:
  /// Applies pending LO->HI switches and due recoveries for slot `now`
  /// across every device manager (no-op without a mode controller).
  void advance_mode(Slot now);

  std::vector<std::unique_ptr<VirtManager>> managers_;  // index = DeviceId
  std::vector<DeviceDesign> designs_;
  std::unique_ptr<ModeController> mode_;      ///< null = MCS disabled
  std::vector<std::uint8_t> hi_tasks_;        ///< bitmap over TaskId.value
  std::vector<std::size_t> mode_to_hi_;       ///< advance_mode scratch
  std::vector<std::size_t> mode_to_lo_;       ///< advance_mode scratch
  EventTrace* tracer_ = nullptr;              ///< for kModeSwitch/kModeRecover
  /// Per-manager wake calendar for set_slot_skipping: earliest slot the
  /// manager must next be ticked (valid only while skip_idle_).
  std::vector<Slot> wake_;
  bool skip_idle_ = false;
  std::vector<std::uint8_t> pchannel_tasks_;  ///< bitmap over TaskId.value
  /// Pre-defined tasks demoted to the R-channel because their Time Slot
  /// Table placement failed (in demotion order), replayed into a tracer.
  struct Demotion {
    DeviceId device;
    VmId vm;
    TaskId task;
  };
  std::vector<Demotion> demotions_;
};

/// Maps a case-study DeviceId to its physical device spec.
[[nodiscard]] const iodev::DeviceSpec& case_study_device_spec(DeviceId id);

}  // namespace ioguard::core
