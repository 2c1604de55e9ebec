// Virtualization manager (Sec. III-A, Fig. 4): the per-device scheduling
// fabric of the hypervisor. It combines
//   * the P-channel (memory banks + executor over the Time Slot Table),
//   * the R-channel (one I/O pool per VM, L-Scheds, shadow registers,
//     the G-Sched, and the executor), and
//   * the pass-through response channel.
// Slot arbitration per slot `t`: if sigma* reserves t for a pre-defined
// task, the P-channel executes it; otherwise the slot is free and the
// G-Sched hands it to a VM's shadow-register operation.
//
// Resilience (DESIGN.md §11): when a FaultInjector is attached, the manager
// also runs the recovery machinery -- a watchdog that aborts an R-channel
// operation stalled on a dead device within its slot budget, bounded
// deadline-aware retry of faulted jobs, and graceful degradation that sheds
// a persistently faulting VM's R-channel queue. The P-channel is immune by
// construction: faults gate only the free-slot path, so sigma* execution is
// bit-identical with or without faults.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/jitter.hpp"
#include "core/event_trace.hpp"
#include "core/gsched.hpp"
#include "core/io_pool.hpp"
#include "core/mode_controller.hpp"
#include "core/pchannel.hpp"
#include "core/translator.hpp"
#include "faults/injector.hpp"
#include "iodev/device.hpp"
#include "sched/slot_table.hpp"

namespace ioguard::core {

struct VManagerConfig {
  std::size_t num_vms = 4;
  std::size_t pool_capacity = 16;  ///< entry registers per I/O pool
  GschedPolicy policy = GschedPolicy::kServerEdf;
  TranslatorConfig translator;
  /// Per-job device occupancy of translation/controller setup (see IoPool).
  Slot dispatch_overhead_slots = 1;
  /// Optional fault injection (not owned; nullptr = fault-free baseline).
  faults::FaultInjector* injector = nullptr;
  /// Site index keying this device's fault RNG streams.
  std::size_t device_index = 0;
  faults::ResilienceConfig resilience;
  /// Optional mixed-criticality mode controller, shared across the block's
  /// devices (not owned; nullptr = single-criticality baseline). When set,
  /// `hi_tasks` must point at the hypervisor's TaskId-indexed HI-criticality
  /// bitmap (nonzero = HI).
  ModeController* mode = nullptr;
  const std::vector<std::uint8_t>* hi_tasks = nullptr;
};

class VirtManager {
 public:
  VirtManager(iodev::DeviceSpec device, workload::TaskSet predefined,
              sched::TimeSlotTable table,
              std::vector<sched::ServerParams> servers,
              const VManagerConfig& config);

  /// Buffers a run-time job from its VM's I/O pool. False when that pool is
  /// full (the request is dropped; isolation keeps other pools unaffected)
  /// or the VM has been degraded (requests rejected at the driver).
  [[nodiscard]] bool submit(const workload::Job& job, Slot now);

  /// Advances one scheduler slot; completions (P- and R-channel) finishing
  /// in this slot are appended to `out`.
  void tick_slot(Slot now, std::vector<iodev::Completion>& out) {
    // The impl classifies what the slot was spent on; busy slots count
    // themselves at the point of use (busy_slots_), so the three counters
    // always partition the ticks exactly.
    switch (tick_slot_impl(now, out)) {
      case SlotUse::kBusy:
        break;
      case SlotUse::kStall:
        ++profile_stall_slots_;
        break;
      case SlotUse::kQuiescent:
        ++profile_quiescent_slots_;
        break;
    }
  }

  [[nodiscard]] const iodev::DeviceSpec& device() const { return device_; }
  [[nodiscard]] const PChannel& pchannel() const { return *pchannel_; }
  [[nodiscard]] const GSched& gsched() const { return *gsched_; }
  [[nodiscard]] const IoPool& pool(std::size_t vm_index) const {
    return *pools_.at(vm_index);
  }
  [[nodiscard]] std::size_t num_vms() const { return pools_.size(); }

  [[nodiscard]] Slot busy_slots() const { return busy_slots_; }
  [[nodiscard]] std::uint64_t runtime_jobs_completed() const {
    return runtime_jobs_completed_;
  }
  [[nodiscard]] std::uint64_t dropped_jobs() const;

  // ---- Fault/resilience observability (all 0 in a fault-free run). ------
  /// This device's watchdog, retry, shed, degradation, frame-fault, stall
  /// and spurious-IRQ counts (the fifo_* and trial-level fields stay 0).
  [[nodiscard]] const faults::FaultCounters& fault_counters() const {
    return faults_;
  }
  [[nodiscard]] bool vm_degraded(std::size_t vm_index) const {
    return vm_degraded_.at(vm_index) != 0;
  }
  [[nodiscard]] std::size_t pending_retries() const {
    return retry_queue_.size();
  }

  // ---- Mixed-criticality mode switching (DESIGN.md §17). All no-ops /
  // zero without an attached ModeController. ------------------------------
  /// LO-criticality backlog attributable to `vm` on this device right now:
  /// pending LO pool entries plus LO jobs waiting out retry backoff. The
  /// hypervisor samples this immediately before apply_mode_switch() so the
  /// transition record can prove the whole backlog was shed (MCS005).
  [[nodiscard]] std::uint64_t lo_pending(std::size_t vm_index) const;
  /// Executes the VM's LO->HI switch on this device: sheds its LO pool
  /// entries and LO retries, drops a LO op left in flight, and inflates the
  /// VM's server budget to its HI parameters. Returns the LO jobs shed here.
  std::uint64_t apply_mode_switch(std::size_t vm_index);
  /// Recovery to LO: restores the VM's admitted LO server parameters.
  void apply_mode_recovery(std::size_t vm_index);
  /// New LO-criticality submissions rejected while their VM was HI.
  [[nodiscard]] std::uint64_t lo_mode_rejected() const {
    return lo_mode_rejected_;
  }
  /// LO jobs shed by mode switches on this device (distinct from the
  /// degradation count in fault_counters()).
  [[nodiscard]] std::uint64_t mode_jobs_shed() const {
    return mode_jobs_shed_;
  }

  // ---- Cycle attribution (DESIGN.md §14). Every tick is exactly one of
  // busy (busy_slots()), stall or quiescent, so the three always sum to the
  // number of ticks this manager has run. --------------------------------
  /// Slots lost while work existed: reserved-but-idle transients, device
  /// stalls, spurious-IRQ burns, and free slots no VM could use while jobs
  /// were pending or retrying.
  [[nodiscard]] std::uint64_t profile_stall_slots() const {
    return profile_stall_slots_;
  }
  /// Free slots with genuinely nothing to do (quiescent-period crawl).
  [[nodiscard]] std::uint64_t profile_quiescent_slots() const {
    return profile_quiescent_slots_;
  }

  // ---- Event-driven runner support (DESIGN.md §15). ----------------------
  /// Earliest slot >= `from` at which ticking this manager could execute or
  /// mutate anything: with R-channel work pending (pool entries, retries,
  /// or a partially-executed op) every slot matters; otherwise only sigma*
  /// reservations do. With a fault injector attached every slot draws fault
  /// RNG, so the hint degenerates to `from` and faulted runs never skip --
  /// keeping them trivially bit-identical to the stepped reference.
  [[nodiscard]] Slot next_busy_slot(Slot from) const {
    if (injector_ != nullptr || rchannel_work_pending()) return from;
    return pchannel_->next_reserved_slot(from);
  }

  /// Batch attribution for slots the runner proved quiescent and skipped;
  /// preserves the busy+stall+quiescent == ticks partition bit-identically
  /// to having ticked each skipped slot.
  void note_skipped_slots(std::uint64_t n) { profile_quiescent_slots_ += n; }

  /// The L-Sched shadows, the three VM masks, the G-Sched's next boundary
  /// and the P-channel's table cursor are kept current from the events that
  /// change them: a free slot refreshes only the shadows of pools whose
  /// queue changed since (DESIGN.md §15.2). With the checks on (the
  /// default; the dense path), every free slot also recomputes the other
  /// shadows and the valid mask, and every slot the pending mask, the
  /// boundary and the cursor's phase, as the hardware does, and
  /// IOGUARD_CHECKs them against the kept copies.
  /// Hypervisor::set_slot_skipping(true) turns the checks off.
  void set_bookkeeping_checks(bool on) { check_bookkeeping_ = on; }

  /// The request-side translator, whose translation count and worst
  /// observed cycles (sub-slot) are reported for calibration.
  [[nodiscard]] const RtTranslator& request_translator() const {
    return request_translator_;
  }

  /// Attaches an event trace buffer (not owned); `device` labels the events.
  /// Every shadow is refreshed at the next free slot, so the new buffer sees
  /// the kShadowExpose edges a refresh of all pools would trace.
  void set_tracer(EventTrace* tracer, DeviceId device) {
    tracer_ = tracer;
    trace_device_ = device;
    dirty_mask_ = all_vms_;
  }

  /// Attaches a jitter recorder (not owned; nullptr detaches) fed at the
  /// P-/R-channel completion points and the response-translation site.
  void set_jitter_recorder(JitterRecorder* recorder);

 private:
  /// What slot `now` was spent on, for the cycle-attribution profiler.
  enum class SlotUse : std::uint8_t { kBusy, kStall, kQuiescent };

  SlotUse tick_slot_impl(Slot now, std::vector<iodev::Completion>& out);
  /// Pool `vm`'s queue changed (an accepted submit, a completion, an abort,
  /// a shed): marks its shadow dirty and re-reads its pending bit.
  void queue_changed(std::size_t vm) {
    const std::uint64_t bit = std::uint64_t{1} << vm;
    dirty_mask_ |= bit;
    if (pools_[vm]->has_pending())
      pending_mask_ |= bit;
    else
      pending_mask_ &= ~bit;
  }
  /// L-Sched step of a free slot: refreshes the shadow snapshot and valid
  /// bit of every pool marked dirty (tracing kShadowExpose edges) and, with
  /// the checks on, checks the rest (check_shadows).
  void refresh_shadows(Slot now);
  /// Dense-path check after a refresh: recomputes the shadows of the pools
  /// not in `refreshed` against their snapshots, and every valid bit.
  void check_shadows(Slot now, std::uint64_t refreshed);
  /// Dense-path check of the per-slot registers: the cursor's phase is
  /// `now % H`, each pending bit says whether its pool holds entries, and
  /// the G-Sched's next boundary is the earliest server boundary.
  void check_registers(Slot now) const;
  /// " on device D (site S), VM v, slot t", for the check messages.
  [[nodiscard]] std::string where(std::size_t vm, Slot now) const;
  /// Any R-channel work in the system (pending pool entries, backoff
  /// retries, or a partially-executed op): distinguishes stall from
  /// quiescent when a slot goes unused.
  [[nodiscard]] bool rchannel_work_pending() const {
    return active_valid_ || !retry_queue_.empty() || pending_mask_ != 0;
  }
  /// A faulted job waiting out its backoff before re-entering the driver.
  struct PendingRetry {
    Slot due = 0;
    workload::Job job;
    std::uint32_t attempt = 0;
  };

  /// Per-slot fault bookkeeping: retry drain, stall onset/countdown,
  /// watchdog. Runs every slot (stalls are wall-clock, not free-slot-clock).
  void begin_tick_faults(Slot now);
  void drain_retries(Slot now);
  void abort_active(Slot now);
  void schedule_retry(const ParamSlot& params, Slot now);
  void note_vm_fault(VmId vm, Slot now);
  /// True when `task` is HI-criticality per the hypervisor's bitmap.
  [[nodiscard]] bool hi_task(TaskId task) const;

  iodev::DeviceSpec device_;
  std::unique_ptr<PChannel> pchannel_;
  std::vector<std::unique_ptr<IoPool>> pools_;
  std::unique_ptr<GSched> gsched_;
  RtTranslator request_translator_;
  RtTranslator response_translator_;
  std::vector<ShadowRegister> shadow_snapshot_;
  // VM masks, bit i = pool i (num_vms <= 64), kept by queue_changed() and
  // refresh_shadows() so a slot walks only the VMs they name.
  std::uint64_t all_vms_ = 0;      ///< one bit per VM
  std::uint64_t dirty_mask_ = 0;   ///< queue changed since the last refresh
  std::uint64_t pending_mask_ = 0; ///< pool holds entries
  std::uint64_t valid_mask_ = 0;   ///< shadow snapshot is valid
  std::vector<JobId> last_exposed_;  ///< per pool, for kShadowExpose edges
  bool check_bookkeeping_ = true;
  Slot busy_slots_ = 0;
  std::uint64_t runtime_jobs_completed_ = 0;
  std::uint64_t profile_stall_slots_ = 0;
  std::uint64_t profile_quiescent_slots_ = 0;
  EventTrace* tracer_ = nullptr;
  DeviceId trace_device_;
  JitterRecorder* jitter_ = nullptr;

  // ---- Fault state (inert without an injector). -------------------------
  faults::FaultInjector* injector_ = nullptr;
  std::size_t fault_site_ = 0;
  faults::ResilienceConfig resilience_;
  Slot dispatch_overhead_ = 1;  ///< mirrored from config, for retry rebuild
  Slot stall_remaining_ = 0;   ///< slots of device stall still to serve
  bool stalled_now_ = false;   ///< this slot is inside a stall window
  Slot stall_watch_ = 0;       ///< watchdog: stalled slots with an op in flight
  bool active_valid_ = false;  ///< an R-channel op is partially executed
  std::size_t active_vm_ = 0;
  EntryHandle active_handle_ = kInvalidHandle;
  JobId active_job_;
  std::vector<PendingRetry> retry_queue_;
  // Ordered map: the container feeds TrialResult bytes (retry accounting),
  // so even latent iteration must be hash-order-free (ioguard_lint LNT003).
  std::map<std::uint64_t, std::uint32_t> attempts_;  // by job id
  std::vector<std::uint64_t> vm_fault_counts_;
  std::vector<std::uint8_t> vm_degraded_;
  faults::FaultCounters faults_;

  // ---- Mixed-criticality state (inert without a mode controller). -------
  ModeController* mode_ = nullptr;
  const std::vector<std::uint8_t>* hi_tasks_ = nullptr;
  std::vector<sched::ServerParams> lo_servers_;  ///< admitted LO parameters
  std::uint64_t lo_mode_rejected_ = 0;
  std::uint64_t mode_jobs_shed_ = 0;

  void trace(Slot slot, TraceEventKind kind, VmId vm, TaskId task, JobId job,
             std::uint32_t aux = 0) const;
};

}  // namespace ioguard::core
