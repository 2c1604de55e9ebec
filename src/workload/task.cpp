#include "workload/task.hpp"

#include <algorithm>
#include <numeric>

namespace ioguard::workload {

const char* to_string(TaskClass c) {
  switch (c) {
    case TaskClass::kSafety: return "safety";
    case TaskClass::kFunction: return "function";
    case TaskClass::kSynthetic: return "synthetic";
  }
  return "?";
}

const char* to_string(TaskKind k) {
  switch (k) {
    case TaskKind::kPredefined: return "predefined";
    case TaskKind::kRuntime: return "runtime";
  }
  return "?";
}

void TaskSet::add(IoTaskSpec spec) {
  IOGUARD_CHECK_MSG(spec.period > 0, "task period must be positive");
  IOGUARD_CHECK_MSG(spec.wcet > 0, "task WCET must be positive");
  IOGUARD_CHECK_MSG(spec.deadline > 0, "task deadline must be positive");
  IOGUARD_CHECK_MSG(spec.deadline <= spec.period,
                    "constrained deadlines required (D <= T)");
  IOGUARD_CHECK_MSG(spec.wcet <= spec.deadline,
                    "WCET must fit within the deadline");
  IOGUARD_CHECK_MSG(spec.wcet_hi == 0 || spec.wcet_hi >= spec.wcet,
                    "HI-mode budget must dominate the LO budget (C_lo <= C_hi)");
  tasks_.push_back(std::move(spec));
}

TaskSet TaskSet::filter_vm(VmId vm) const {
  TaskSet out;
  for (const auto& t : tasks_)
    if (t.vm == vm) out.tasks_.push_back(t);
  return out;
}

TaskSet TaskSet::filter_device(DeviceId dev) const {
  TaskSet out;
  for (const auto& t : tasks_)
    if (t.device == dev) out.tasks_.push_back(t);
  return out;
}

TaskSet TaskSet::filter_kind(TaskKind kind) const {
  TaskSet out;
  for (const auto& t : tasks_)
    if (t.kind == kind) out.tasks_.push_back(t);
  return out;
}

double TaskSet::utilization() const {
  double u = 0.0;
  for (const auto& t : tasks_) u += t.utilization();
  return u;
}

bool TaskSet::mixed_criticality() const {
  for (const auto& t : tasks_)
    if (t.criticality == Criticality::kHi || t.wcet_hi != 0) return true;
  return false;
}

std::vector<DeviceId> TaskSet::devices() const {
  std::vector<DeviceId> ids;
  for (const auto& t : tasks_)
    if (std::find(ids.begin(), ids.end(), t.device) == ids.end())
      ids.push_back(t.device);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::optional<Slot> lcm_within(Slot a, Slot b, Slot cap) {
  IOGUARD_CHECK(a > 0 && b > 0);
  const Slot q = a / std::gcd(a, b);
  if (q > cap / b) return std::nullopt;
  return q * b;
}

Slot checked_lcm(Slot a, Slot b, Slot cap) {
  const std::optional<Slot> l = lcm_within(a, b, cap);
  IOGUARD_CHECK_MSG(l.has_value(), "hyperperiod overflow");
  return *l;
}

std::optional<Slot> TaskSet::hyperperiod(Slot cap) const {
  IOGUARD_CHECK(!tasks_.empty());
  Slot h = 1;
  for (const auto& t : tasks_) {
    const std::optional<Slot> l = lcm_within(h, t.period, cap);
    if (!l) return std::nullopt;
    h = *l;
  }
  return h;
}

}  // namespace ioguard::workload
