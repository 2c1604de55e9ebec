#include "core/hypervisor.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/check.hpp"
#include "workload/automotive.hpp"

namespace ioguard::core {

const iodev::DeviceSpec& case_study_device_spec(DeviceId id) {
  // Indexed by workload::CaseStudyDevice.
  static const iodev::DeviceSpec kDevices[workload::kCaseStudyDeviceCount] = {
      {"eth0"}, {"flexray0"}, {"can0"}, {"spi0"}};
  IOGUARD_CHECK_MSG(id.value < workload::kCaseStudyDeviceCount,
                    "unknown case-study device");
  return kDevices[id.value];
}

namespace {

/// Utilization-proportional fallback servers when Theorem 2/4 synthesis
/// fails (over-utilized configurations the evaluation sweeps through).
std::vector<sched::ServerParams> fallback_servers(
    const std::vector<workload::TaskSet>& vm_tasks, double free_bandwidth) {
  std::vector<sched::ServerParams> servers;
  servers.reserve(vm_tasks.size());
  double total_u = 0.0;
  for (const auto& ts : vm_tasks) total_u += ts.utilization();
  constexpr Slot kPi = 50;
  for (const auto& ts : vm_tasks) {
    if (ts.empty() || total_u <= 0.0) {
      servers.push_back(sched::ServerParams{kPi, 0});
      continue;
    }
    // Split the available free bandwidth proportionally to VM demand.
    const double share = ts.utilization() / total_u *
                         std::min(1.0, free_bandwidth);
    auto theta = static_cast<Slot>(
        std::ceil(share * static_cast<double>(kPi)));
    theta = std::clamp<Slot>(theta, ts.utilization() > 0 ? 1 : 0, kPi);
    servers.push_back(sched::ServerParams{kPi, theta});
  }
  return servers;
}

}  // namespace

DevicePlan plan_device(const workload::CaseStudyWorkload& wl, DeviceId dev,
                       std::size_t num_vms, Slot dispatch_overhead_slots) {
  DevicePlan plan;
  plan.predefined = wl.predefined().filter_device(dev);
  auto build = sched::build_time_slot_table(plan.predefined);
  if (!build.feasible) plan.table_failure = build.failure;
  while (!build.feasible && !plan.predefined.empty()) {
    // Demote the least critical, largest-demand task first.
    std::vector<workload::IoTaskSpec> remaining = plan.predefined.tasks();
    std::size_t victim = 0;
    for (std::size_t i = 1; i < remaining.size(); ++i) {
      const auto key = [](const workload::IoTaskSpec& t) {
        return std::make_pair(static_cast<int>(t.cls), t.utilization());
      };
      if (key(remaining[i]) > key(remaining[victim])) victim = i;
    }
    workload::IoTaskSpec moved = remaining[victim];
    moved.kind = workload::TaskKind::kRuntime;
    plan.demoted.add(std::move(moved));
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(victim));
    plan.predefined = workload::TaskSet(std::move(remaining));
    build = sched::build_time_slot_table(plan.predefined);
  }
  IOGUARD_CHECK_MSG(build.feasible, "empty table must be feasible");
  plan.table = std::move(build.table);

  auto runtime = wl.runtime().filter_device(dev);
  for (const auto& t : plan.demoted.tasks()) runtime.add(t);
  plan.vm_tasks.reserve(num_vms);
  for (std::size_t v = 0; v < num_vms; ++v) {
    workload::TaskSet charged;
    const auto vm_set = runtime.filter_vm(VmId{static_cast<std::uint32_t>(v)});
    for (auto t : vm_set.tasks()) {
      t.wcet = std::min(t.deadline, t.wcet + dispatch_overhead_slots);
      charged.add(std::move(t));
    }
    plan.vm_tasks.push_back(std::move(charged));
  }
  return plan;
}

Hypervisor::Hypervisor(const workload::CaseStudyWorkload& wl,
                       const HypervisorConfig& config) {
  const std::size_t n_dev = workload::kCaseStudyDeviceCount;
  managers_.reserve(n_dev);
  designs_.reserve(n_dev);

  if (config.mode_switch.enabled) {
    mode_ = std::make_unique<ModeController>(config.num_vms,
                                             config.mode_switch);
    // HI-criticality bitmap over every task id (built before the managers,
    // which keep a pointer into it). Pre-defined tasks execute on the
    // immune P-channel; listing them here is harmless and keeps demoted
    // HI tasks protected on the R-channel too.
    auto mark = [this](const workload::TaskSet& ts) {
      for (const auto& t : ts.tasks()) {
        if (!t.hi_criticality()) continue;
        if (t.id.value >= hi_tasks_.size()) hi_tasks_.resize(t.id.value + 1, 0);
        hi_tasks_[t.id.value] = 1;
      }
    };
    mark(wl.predefined());
    mark(wl.runtime());
  }

  for (std::size_t d = 0; d < n_dev; ++d) {
    const DeviceId dev{static_cast<std::uint32_t>(d)};
    DeviceDesign design;
    design.device = dev;
    design.spec = case_study_device_spec(dev);

    // Offline Time Slot Table and per-VM R-channel task sets, then periodic
    // servers for them.
    DevicePlan plan = plan_device(wl, dev, config.num_vms,
                                  config.dispatch_overhead_slots);
    design.table_feasible = plan.demoted.empty();
    if (!plan.demoted.empty()) {
      design.note = "slot table: " + plan.table_failure + " (demoted:";
      for (const auto& t : plan.demoted.tasks()) {
        design.note += " " + t.name;
        demotions_.push_back(Demotion{dev, t.vm, t.id});
      }
      design.note += ")";
    }
    for (const auto& t : plan.predefined.tasks()) {
      if (t.id.value >= pchannel_tasks_.size())
        pchannel_tasks_.resize(t.id.value + 1, 0);
      pchannel_tasks_[t.id.value] = 1;
    }
    design.hyperperiod = plan.table.hyperperiod();
    design.free_slots = plan.table.free_slots();

    const sched::TableSupply supply(plan.table);
    auto sys =
        sched::design_system(supply, plan.vm_tasks, config.server_design);
    design.servers_feasible = sys.feasible;
    if (sys.feasible) {
      design.servers = sys.servers;
    } else {
      design.servers = fallback_servers(plan.vm_tasks, supply.bandwidth());
      if (!design.note.empty()) design.note += "; ";
      design.note += "servers: " + sys.reason + " (fallback budgets)";
    }

    VManagerConfig mc;
    mc.num_vms = config.num_vms;
    mc.pool_capacity = config.pool_capacity;
    mc.dispatch_overhead_slots = config.dispatch_overhead_slots;
    mc.policy = config.policy;
    mc.translator = config.translator;
    mc.injector = config.injector;
    mc.device_index = d;
    mc.resilience = config.resilience;
    mc.mode = mode_.get();
    mc.hi_tasks = mode_ != nullptr ? &hi_tasks_ : nullptr;
    managers_.push_back(std::make_unique<VirtManager>(
        design.spec, std::move(plan.predefined), std::move(plan.table),
        design.servers, mc));
    designs_.push_back(std::move(design));
  }
}

bool Hypervisor::submit(const workload::Job& job, Slot now) {
  IOGUARD_CHECK(job.device.value < managers_.size());
  // New work invalidates the target manager's wake hint: it must be ticked
  // this very slot (submissions happen before the slot's tick_slot call).
  if (skip_idle_) wake_[job.device.value] = now;
  return managers_[job.device.value]->submit(job, now);
}

void Hypervisor::set_slot_skipping(bool on) {
  skip_idle_ = on;
  wake_.assign(managers_.size(), 0);
  // The dense path recomputes every register every slot and checks the
  // event-maintained copies; the calendar path trusts them.
  for (auto& m : managers_) m->set_bookkeeping_checks(!on);
}

void Hypervisor::tick_slot(Slot now, std::vector<iodev::Completion>& out) {
  if (!skip_idle_) {
    for (auto& m : managers_) m->tick_slot(now, out);
    if (mode_ != nullptr) advance_mode(now);
    return;
  }
  // Calendar path: a manager whose wake hint is still in the future would
  // tick as a pure ++quiescent no-op, so attribute the slot directly and
  // skip the dense tick. Managers are visited in device order either way,
  // so `out` is byte-identical to the dense path.
  for (std::size_t d = 0; d < managers_.size(); ++d) {
    if (wake_[d] > now) {
      managers_[d]->note_skipped_slots(1);
      continue;
    }
    managers_[d]->tick_slot(now, out);
    wake_[d] = managers_[d]->next_busy_slot(now + 1);
  }
  if (mode_ != nullptr) advance_mode(now);
}

void Hypervisor::advance_mode(Slot now) {
  mode_to_hi_.clear();
  mode_to_lo_.clear();
  mode_->advance(now, mode_to_hi_, mode_to_lo_);
  for (std::size_t v : mode_to_hi_) {
    // Sample the whole LO backlog across the block before any shedding so
    // the transition record can prove atomicity (MCS005: a record with
    // lo_pending > jobs_shed is a forged/partial switch).
    std::uint64_t pending = 0;
    for (auto& m : managers_) pending += m->lo_pending(v);
    std::uint64_t shed = 0;
    for (auto& m : managers_) shed += m->apply_mode_switch(v);
    mode_->finalize_switch(v, pending, shed);
    if (tracer_ != nullptr)
      tracer_->record(TraceEvent{
          now, TraceEventKind::kModeSwitch, DeviceId{},
          VmId{static_cast<std::uint32_t>(v)}, TaskId{}, JobId{},
          static_cast<std::uint32_t>(shed)});
  }
  for (std::size_t v : mode_to_lo_) {
    for (auto& m : managers_) m->apply_mode_recovery(v);
    if (tracer_ != nullptr)
      tracer_->record(TraceEvent{now, TraceEventKind::kModeRecover, DeviceId{},
                                 VmId{static_cast<std::uint32_t>(v)}, TaskId{},
                                 JobId{}, 0});
  }
  // A switch changed what the managers will do with their queues: wake them
  // next slot so the calendar cannot coast on a pre-switch hint.
  if (skip_idle_ && !(mode_to_hi_.empty() && mode_to_lo_.empty()))
    for (auto& w : wake_) w = std::min(w, now + 1);
}

Slot Hypervisor::next_busy_slot(Slot from) const {
  Slot wake = kNeverSlot;
  if (skip_idle_) {
    // wake_ is maintained by tick_slot/submit and is never stale: every
    // entry was recomputed at its manager's last tick, and nothing can
    // advance a manager's first interesting slot in between except a
    // submission, which clamps it.
    for (const Slot w : wake_) wake = std::min(wake, std::max(w, from));
  } else {
    for (const auto& m : managers_)
      wake = std::min(wake, m->next_busy_slot(from));
  }
  if (mode_ != nullptr) {
    // An armed switch or due recovery is a reason to tick even when every
    // channel is idle: the event-driven runner must not jump past the
    // hysteresis deadline (event/stepped byte-equality).
    const Slot due = mode_->next_transition_due();
    if (due != kNeverSlot) wake = std::min(wake, std::max(due, from));
  }
  return wake;
}

void Hypervisor::note_skipped_slots(std::uint64_t n) {
  for (auto& m : managers_) m->note_skipped_slots(n);
}

VirtManager& Hypervisor::manager(DeviceId device) {
  IOGUARD_CHECK(device.value < managers_.size());
  return *managers_[device.value];
}

const VirtManager& Hypervisor::manager(DeviceId device) const {
  IOGUARD_CHECK(device.value < managers_.size());
  return *managers_[device.value];
}

bool Hypervisor::fully_admitted() const {
  return std::all_of(designs_.begin(), designs_.end(),
                     [](const DeviceDesign& d) {
                       return d.table_feasible && d.servers_feasible;
                     });
}

void Hypervisor::set_tracer(EventTrace* tracer) {
  tracer_ = tracer;  // mode transitions are block-level, traced here
  for (std::size_t d = 0; d < managers_.size(); ++d)
    managers_[d]->set_tracer(tracer, DeviceId{static_cast<std::uint32_t>(d)});
  if (!tracer) return;
  // Init-time decisions happened before any trace buffer existed; replay
  // them at slot 0 so demotions are no longer silent.
  for (const auto& d : demotions_)
    tracer->record(TraceEvent{0, TraceEventKind::kDemote, d.device, d.vm,
                              d.task, JobId{}, 0});
}

void Hypervisor::set_jitter_recorder(JitterRecorder* recorder) {
  for (auto& m : managers_) m->set_jitter_recorder(recorder);
}

void Hypervisor::dump_scheduler_state(std::ostream& os) const {
  for (std::size_t d = 0; d < managers_.size(); ++d) {
    const VirtManager& m = *managers_[d];
    for (std::size_t v = 0; v < m.num_vms(); ++v) {
      os << "state,device=" << d << ",vm=" << v
         << ",backlog=" << m.pool(v).backlog()
         << ",granted=" << m.gsched().granted(v)
         << ",degraded=" << (m.vm_degraded(v) ? 1 : 0);
      // Criticality mode only when the feature is on: pre-MCS dumps keep
      // their exact bytes.
      if (mode_ != nullptr) os << ",mode=" << to_string(mode_->vm_mode(v));
      os << '\n';
    }
    os << "state,device=" << d << ",retries_pending=" << m.pending_retries()
       << ",busy_slots=" << m.busy_slots()
       << ",stall_slots=" << m.profile_stall_slots() << '\n';
  }
}

std::uint64_t Hypervisor::dropped_jobs() const {
  std::uint64_t total = 0;
  for (const auto& m : managers_) total += m->dropped_jobs();
  return total;
}

faults::FaultCounters Hypervisor::fault_counters() const {
  faults::FaultCounters total;
  for (const auto& m : managers_) total += m->fault_counters();
  return total;
}

std::uint64_t Hypervisor::lo_mode_rejected() const {
  std::uint64_t total = 0;
  for (const auto& m : managers_) total += m->lo_mode_rejected();
  return total;
}

std::uint64_t Hypervisor::mode_jobs_shed() const {
  std::uint64_t total = 0;
  for (const auto& m : managers_) total += m->mode_jobs_shed();
  return total;
}

}  // namespace ioguard::core
