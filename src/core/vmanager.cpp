#include "core/vmanager.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/check.hpp"

namespace ioguard::core {

namespace {

/// Saturating slot delta for trace payloads (aux is 32-bit).
std::uint32_t clamp_aux(Slot value) {
  constexpr Slot kMax = 0xffffffffu;
  return static_cast<std::uint32_t>(value < kMax ? value : kMax);
}

std::uint32_t fault_aux(faults::FaultKind kind) {
  return static_cast<std::uint32_t>(kind);
}

bool same_shadow(const ShadowRegister& a, const ShadowRegister& b) {
  return a.valid == b.valid && a.handle == b.handle &&
         a.absolute_deadline == b.absolute_deadline &&
         a.release == b.release && a.vm == b.vm && a.task == b.task &&
         a.job == b.job;
}

}  // namespace

VirtManager::VirtManager(iodev::DeviceSpec device,
                         workload::TaskSet predefined,
                         sched::TimeSlotTable table,
                         std::vector<sched::ServerParams> servers,
                         const VManagerConfig& config)
    : device_(std::move(device)),
      pchannel_(std::make_unique<PChannel>(std::move(predefined),
                                           std::move(table))),
      gsched_(std::make_unique<GSched>(std::move(servers), config.policy)),
      request_translator_(config.translator, /*seed=*/11),
      response_translator_(config.translator, /*seed=*/13),
      injector_(config.injector),
      fault_site_(config.device_index),
      resilience_(config.resilience),
      dispatch_overhead_(config.dispatch_overhead_slots) {
  IOGUARD_CHECK(config.num_vms > 0);
  IOGUARD_CHECK_MSG(config.num_vms <= 64,
                    "the R-channel's VM masks hold at most 64 VMs");
  IOGUARD_CHECK_MSG(gsched_->servers().size() == config.num_vms,
                    "one server per VM required");
  pools_.reserve(config.num_vms);
  for (std::size_t i = 0; i < config.num_vms; ++i)
    pools_.push_back(std::make_unique<IoPool>(
        VmId{static_cast<std::uint32_t>(i)}, config.pool_capacity,
        config.dispatch_overhead_slots));
  shadow_snapshot_.resize(config.num_vms);
  all_vms_ = config.num_vms == 64 ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << config.num_vms) - 1;
  dirty_mask_ = all_vms_;
  last_exposed_.resize(config.num_vms);
  vm_fault_counts_.resize(config.num_vms, 0);
  vm_degraded_.resize(config.num_vms, 0);
  if (injector_ != nullptr) {
    // The translator pair shares one fault domain per device: both draw
    // overruns from the same (kind, device) stream, in call order.
    request_translator_.attach_faults(injector_, fault_site_);
    response_translator_.attach_faults(injector_, fault_site_);
  }
  mode_ = config.mode;
  hi_tasks_ = config.hi_tasks;
  if (mode_ != nullptr) {
    IOGUARD_CHECK_MSG(hi_tasks_ != nullptr,
                      "mode switching needs the HI-criticality task bitmap");
    // The admitted (LO) server parameters are the recovery target; HI
    // parameters are derived on demand from the configured inflation.
    lo_servers_ = gsched_->servers();
  }
}

bool VirtManager::hi_task(TaskId task) const {
  return hi_tasks_ != nullptr && task.value < hi_tasks_->size() &&
         (*hi_tasks_)[task.value] != 0;
}

void VirtManager::trace(Slot slot, TraceEventKind kind, VmId vm, TaskId task,
                        JobId job, std::uint32_t aux) const {
  if (!tracer_) return;
  tracer_->record(TraceEvent{slot, kind, trace_device_, vm, task, job, aux});
}

bool VirtManager::submit(const workload::Job& job, Slot now) {
  IOGUARD_CHECK_MSG(job.vm.value < pools_.size(), "job from unknown VM");
  if (vm_degraded_[job.vm.value] != 0) {
    // Graceful degradation: the driver rejects the request outright instead
    // of letting a faulting VM churn the R-channel.
    trace(now, TraceEventKind::kDrop, job.vm, job.task, job.id);
    return false;
  }
  if (mode_ != nullptr && mode_->hi(job.vm.value) && !hi_task(job.task)) {
    // HI mode: the driver sheds LO-criticality work at the door so every
    // remaining slot of the VM's (inflated) budget serves HI tasks.
    ++lo_mode_rejected_;
    trace(now, TraceEventKind::kDrop, job.vm, job.task, job.id);
    return false;
  }
  // Request translation happens on the access path; its bounded sub-slot
  // latency is tracked for calibration but does not consume a slot.
  const Cycle request_cycles = request_translator_.translate();
  trace(now, TraceEventKind::kTranslate, job.vm, job.task, job.id,
        static_cast<std::uint32_t>(request_cycles));
  if (mode_ != nullptr && request_cycles > request_translator_.wcet())
    mode_->note_budget_overrun(job.vm, now);
  const bool accepted = pools_[job.vm.value]->submit(job);
  if (accepted) queue_changed(job.vm.value);
  trace(now, accepted ? TraceEventKind::kSubmit : TraceEventKind::kDrop,
        job.vm, job.task, job.id);
  return accepted;
}

void VirtManager::drain_retries(Slot now) {
  // Insertion order is deterministic, so the drain order is too.
  std::size_t kept = 0;
  for (auto& r : retry_queue_) {
    if (r.due > now) {
      retry_queue_[kept++] = r;
      continue;
    }
    (void)submit(r.job, now);  // pool-full / degraded drops are accounted
  }
  retry_queue_.resize(kept);
}

void VirtManager::begin_tick_faults(Slot now) {
  if (!retry_queue_.empty()) drain_retries(now);
  if (stall_remaining_ == 0) {
    const Slot stall = injector_->device_stall_begins(fault_site_);
    if (stall > 0) {
      stall_remaining_ = stall;
      trace(now, TraceEventKind::kFaultInject, VmId{}, TaskId{}, JobId{},
            fault_aux(faults::FaultKind::kDeviceStall));
    }
  }
  if (stall_remaining_ > 0) {
    --stall_remaining_;
    stalled_now_ = true;
    ++faults_.stalled_slots;
    if (active_valid_) {
      // Watchdog: an R-channel op is wedged on the stalled device. Abort it
      // within the configured budget so its slot reservation cannot leak.
      ++stall_watch_;
      if (stall_watch_ >= resilience_.watchdog_timeout_slots)
        abort_active(now);
    }
    return;
  }
  stalled_now_ = false;
  stall_watch_ = 0;
}

void VirtManager::abort_active(Slot now) {
  const ParamSlot p = pools_[active_vm_]->abort(active_handle_);
  queue_changed(active_vm_);
  trace(now, TraceEventKind::kWatchdogAbort, p.vm, p.task, p.job,
        clamp_aux(stall_watch_));
  ++faults_.watchdog_aborts;
  active_valid_ = false;
  stall_watch_ = 0;
  stall_remaining_ = 0;  // the abort resets the device
  stalled_now_ = false;
  note_vm_fault(p.vm, now);
  schedule_retry(p, now);
}

void VirtManager::schedule_retry(const ParamSlot& params, Slot now) {
  if (vm_degraded_[params.vm.value] != 0) return;
  const std::uint32_t attempt = ++attempts_[params.job.value];
  if (attempt > resilience_.max_retries) {
    ++faults_.retries_exhausted;
    return;
  }
  // Exponential backoff, but never a retry that cannot meet the deadline:
  // re-service needs `total` more slots after the backoff expires.
  const Slot delay = resilience_.retry_backoff_base_slots
                     << (attempt - 1);
  const Slot due = now + 1 + delay;
  if (due + params.total > params.absolute_deadline) {
    ++faults_.retries_exhausted;
    return;
  }
  workload::Job job;
  job.id = params.job;
  job.task = params.task;
  job.vm = params.vm;
  job.device = params.device;
  job.release = params.release;
  job.absolute_deadline = params.absolute_deadline;
  // The pool re-adds the dispatch overhead on submit; a retry retransmits
  // the full payload.
  job.wcet = params.total > dispatch_overhead_
                 ? params.total - dispatch_overhead_
                 : 1;
  job.payload_bytes = params.payload_bytes;
  retry_queue_.push_back(PendingRetry{due, job, attempt});
  ++faults_.retries;
  faults_.max_retry_attempt = std::max(faults_.max_retry_attempt, attempt);
  trace(now, TraceEventKind::kRetry, job.vm, job.task, job.id, attempt);
}

void VirtManager::note_vm_fault(VmId vm, Slot now) {
  const std::size_t i = vm.value;
  ++vm_fault_counts_[i];
  if (!resilience_.degradation_enabled || vm_degraded_[i] != 0) return;
  if (vm_fault_counts_[i] < resilience_.degradation_threshold) return;
  vm_degraded_[i] = 1;
  ++faults_.degraded_vms;
  const std::size_t shed = pools_[i]->shed_all();
  queue_changed(i);
  faults_.jobs_shed += shed;
  // Pending retries of the degraded VM are shed with the queue.
  std::size_t kept = 0;
  for (auto& r : retry_queue_) {
    if (r.job.vm == vm) {
      ++faults_.jobs_shed;
      continue;
    }
    retry_queue_[kept++] = r;
  }
  retry_queue_.resize(kept);
  if (active_valid_ && active_vm_ == i) active_valid_ = false;
  trace(now, TraceEventKind::kShed, vm, TaskId{}, JobId{},
        clamp_aux(faults_.jobs_shed));
}

void VirtManager::set_jitter_recorder(JitterRecorder* recorder) {
  jitter_ = recorder;
  pchannel_->set_jitter_recorder(recorder);
}

void VirtManager::refresh_shadows(Slot now) {
  const std::uint64_t dirty = dirty_mask_;
  dirty_mask_ = 0;
  for (std::uint64_t m = dirty; m != 0; m &= m - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(m));
    pools_[i]->refresh_shadow();
    const ShadowRegister& shadow = shadow_snapshot_[i] = pools_[i]->shadow();
    if (shadow.valid)
      valid_mask_ |= std::uint64_t{1} << i;
    else
      valid_mask_ &= ~(std::uint64_t{1} << i);
    // Edge-trigger a kShadowExpose whenever the exposed job changes (the
    // L-Sched latching a new head into the shadow register).
    if (tracer_ && shadow.valid && shadow.job != last_exposed_[i]) {
      last_exposed_[i] = shadow.job;
      trace(now, TraceEventKind::kShadowExpose, shadow.vm, shadow.task,
            shadow.job);
    }
  }
  if (check_bookkeeping_) check_shadows(now, dirty);
}

std::string VirtManager::where(std::size_t vm, Slot now) const {
  return " on device " + device_.name + " (site " +
         std::to_string(fault_site_) + "), VM " + std::to_string(vm) +
         ", slot " + std::to_string(now);
}

void VirtManager::check_shadows(Slot now, std::uint64_t refreshed) {
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    if ((refreshed >> i & 1) == 0) {
      // A pool's head moves only where its queue changes, and each such
      // point marks it dirty; recompute anyway and prove the kept copy.
      pools_[i]->refresh_shadow();
      IOGUARD_CHECK_MSG(same_shadow(pools_[i]->shadow(), shadow_snapshot_[i]),
                        "stale L-Sched shadow" + where(i, now) +
                            ": its queue changed without a dirty mark");
    }
    IOGUARD_CHECK_MSG((valid_mask_ >> i & 1) == (shadow_snapshot_[i].valid),
                      "stale G-Sched candidate bit" + where(i, now) +
                          ": it disagrees with the shadow's valid bit");
  }
}

void VirtManager::check_registers(Slot now) const {
  IOGUARD_CHECK_EQ_MSG(pchannel_->cursor_phase(),
                       now % pchannel_->table().hyperperiod(),
                       "P-channel table cursor on device " + device_.name +
                           " (site " + std::to_string(fault_site_) +
                           ") lost its phase at slot " + std::to_string(now));
  std::size_t earliest = 0;
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    IOGUARD_CHECK_MSG((pending_mask_ >> i & 1) == (pools_[i]->has_pending()),
                      "stale R-channel pending bit" + where(i, now) +
                          ": it disagrees with the pool's queue");
    if (gsched_->next_replenish(i) < gsched_->next_replenish(earliest))
      earliest = i;
  }
  IOGUARD_CHECK_EQ_MSG(gsched_->next_boundary(),
                       gsched_->next_replenish(earliest),
                       "stale G-Sched replenishment boundary" +
                           where(earliest, now) +
                           ": this VM's server period ends first");
}

VirtManager::SlotUse VirtManager::tick_slot_impl(
    Slot now, std::vector<iodev::Completion>& out) {
  if (injector_ != nullptr) begin_tick_faults(now);

  // 1. P-channel has absolute priority on its reserved slots. Fault gating
  // never reaches this path: sigma* execution is identical under any plan.
  bool used = false;
  auto completed = pchannel_->execute_slot(now, used);
  if (check_bookkeeping_) check_registers(now);
  if (completed) {
    ++busy_slots_;
    const workload::Job& job = completed->job;
    trace(now, TraceEventKind::kPchannelSlot, job.vm, job.task, job.id);
    trace(now, TraceEventKind::kComplete, job.vm, job.task, job.id);
    if (completed->completed_at > job.absolute_deadline)
      trace(now, TraceEventKind::kDeadlineMiss, job.vm, job.task, job.id,
            clamp_aux(completed->completed_at - job.absolute_deadline));
    out.push_back(*completed);
    return SlotUse::kBusy;
  }
  if (used) {
    ++busy_slots_;
    if (tracer_)
      trace(now, TraceEventKind::kPchannelSlot, VmId{}, TaskId{}, JobId{});
    return SlotUse::kBusy;  // reserved slot consumed mid-job
  }
  if (!pchannel_->slot_is_free(now))
    return SlotUse::kStall;  // reserved but idle (transient)

  if (injector_ != nullptr) {
    if (stalled_now_)
      return SlotUse::kStall;  // device not draining: the free slot is lost
    if (injector_->spurious_interrupt(fault_site_)) {
      // A phantom IRQ makes the hypervisor service a completion that never
      // happened; the free slot is burned on the spurious handler.
      ++faults_.spurious_irq_slots;
      trace(now, TraceEventKind::kFaultInject, VmId{}, TaskId{}, JobId{},
            fault_aux(faults::FaultKind::kSpuriousInterrupt));
      return SlotUse::kStall;
    }
  }

  // 2. Free slot: L-Scheds refresh the shadow registers...
  refresh_shadows(now);

  // 3. ...and the G-Sched picks the slot's owner.
  const auto winner = gsched_->pick(now, shadow_snapshot_, valid_mask_);
  if (!winner)
    return rchannel_work_pending() ? SlotUse::kStall : SlotUse::kQuiescent;

  ++busy_slots_;
  const ShadowRegister& granted = shadow_snapshot_[*winner];
  trace(now, TraceEventKind::kRchannelGrant,
        VmId{static_cast<std::uint32_t>(*winner)}, granted.task, granted.job);
  if (tracer_ && granted.valid) {
    const ParamSlot& p = pools_[*winner]->queue().params(granted.handle);
    if (p.remaining == p.total)
      trace(now, TraceEventKind::kDeviceBegin, granted.vm, granted.task,
            granted.job);
  }
  if (auto finished = pools_[*winner]->execute_shadow_slot()) {
    queue_changed(*winner);
    if (active_valid_ && active_job_ == finished->job) active_valid_ = false;
    if (injector_ != nullptr) {
      // The response frame is the fault surface: it can be lost in flight
      // or arrive corrupted; either way the driver must retransmit.
      faults::FaultKind frame_fault{};
      bool faulted = false;
      if (injector_->drop_frame(fault_site_)) {
        frame_fault = faults::FaultKind::kDroppedFrame;
        faulted = true;
      } else if (injector_->corrupt_frame(fault_site_)) {
        frame_fault = faults::FaultKind::kCorruptFrame;
        faulted = true;
      }
      if (faulted) {
        ++faults_.frame_faults;
        trace(now, TraceEventKind::kFaultInject, finished->vm, finished->task,
              finished->job, fault_aux(frame_fault));
        note_vm_fault(finished->vm, now);
        schedule_retry(*finished, now);
        // No completion: the frame never reached its VM intact.
        return SlotUse::kBusy;
      }
    }
    // Pass-through response channel: bounded response translation.
    const Cycle response_cycles = response_translator_.translate();
    if (mode_ != nullptr && response_cycles > response_translator_.wcet())
      mode_->note_budget_overrun(finished->vm, now);
    if (jitter_ != nullptr) {
      // R-channel timing accuracy (DESIGN.md §14): intended delivery is the
      // release plus the unloaded service demand (wcet + dispatch overhead
      // = ParamSlot::total); the deviation folds in queueing, scheduling
      // and retry delay. Translator deviation is sub-slot, in cycles.
      jitter_->record(JitterChannel::kRChannel, finished->vm, finished->task,
                      finished->release + finished->total, now + 1);
      jitter_->record_translator(
          DeviceId{static_cast<std::uint32_t>(fault_site_)},
          response_cycles - response_translator_.best_case());
    }
    ++runtime_jobs_completed_;
    iodev::Completion done;
    done.job.id = finished->job;
    done.job.task = finished->task;
    done.job.vm = finished->vm;
    done.job.device = finished->device;
    done.job.release = finished->release;
    done.job.absolute_deadline = finished->absolute_deadline;
    done.job.wcet = 0;  // consumed
    done.job.payload_bytes = finished->payload_bytes;
    done.enqueued_at = finished->release;
    done.completed_at = now + 1;
    trace(now, TraceEventKind::kTranslate, done.job.vm, done.job.task,
          done.job.id, static_cast<std::uint32_t>(response_cycles));
    trace(now, TraceEventKind::kComplete, done.job.vm, done.job.task,
          done.job.id);
    if (done.completed_at > done.job.absolute_deadline)
      trace(now, TraceEventKind::kDeadlineMiss, done.job.vm, done.job.task,
            done.job.id,
            clamp_aux(done.completed_at - done.job.absolute_deadline));
    out.push_back(done);
  } else if (injector_ != nullptr) {
    // Partially-executed op now in flight on the device: the watchdog's
    // charge if the device stalls under it.
    active_valid_ = true;
    active_vm_ = *winner;
    active_handle_ = granted.handle;
    active_job_ = granted.job;
  }
  return SlotUse::kBusy;
}

std::uint64_t VirtManager::lo_pending(std::size_t vm_index) const {
  IOGUARD_CHECK(vm_index < pools_.size());
  std::uint64_t n = 0;
  const HwPriorityQueue& q = pools_[vm_index]->queue();
  for (EntryHandle h : q.live_handles())
    if (!hi_task(q.params(h).task)) ++n;
  for (const auto& r : retry_queue_)
    if (r.job.vm.value == vm_index && !hi_task(r.job.task)) ++n;
  return n;
}

std::uint64_t VirtManager::apply_mode_switch(std::size_t vm_index) {
  IOGUARD_CHECK(vm_index < pools_.size());
  IOGUARD_CHECK_MSG(mode_ != nullptr, "mode switch without a controller");
  std::uint64_t shed = pools_[vm_index]->shed_lo(*hi_tasks_);
  queue_changed(vm_index);
  // LO retries waiting out backoff are shed with the queue; HI retries keep
  // their slots (their C_hi guarantee survives the switch).
  std::size_t kept = 0;
  for (auto& r : retry_queue_) {
    if (r.job.vm.value == vm_index && !hi_task(r.job.task)) {
      ++shed;
      continue;
    }
    retry_queue_[kept++] = r;
  }
  retry_queue_.resize(kept);
  // A LO op caught mid-service was removed from the queue by shed_lo; drop
  // the dangling watchdog charge.
  if (active_valid_ && active_vm_ == vm_index &&
      !pools_[vm_index]->queue().valid(active_handle_))
    active_valid_ = false;
  // Inflate the VM's server to its HI-mode budget: Theta_hi =
  // min(Pi, ceil(Theta * f)), the parameters dual-criticality admission
  // verified (the period is fixed, so sigma* and the other VMs' guarantees
  // are untouched).
  sched::ServerParams hi = lo_servers_[vm_index];
  hi.theta = std::min(
      hi.pi, static_cast<Slot>(std::ceil(
                 static_cast<double>(hi.theta) *
                 mode_->config().hi_budget_factor)));
  gsched_->set_server(vm_index, hi);
  mode_jobs_shed_ += shed;
  return shed;
}

void VirtManager::apply_mode_recovery(std::size_t vm_index) {
  IOGUARD_CHECK(vm_index < pools_.size());
  IOGUARD_CHECK_MSG(mode_ != nullptr, "mode recovery without a controller");
  gsched_->set_server(vm_index, lo_servers_[vm_index]);
}

std::uint64_t VirtManager::dropped_jobs() const {
  std::uint64_t total = 0;
  for (const auto& pool : pools_) total += pool->dropped();
  return total;
}

}  // namespace ioguard::core
