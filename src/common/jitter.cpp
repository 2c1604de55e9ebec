#include "common/jitter.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace ioguard {

JitterRecorder::JitterRecorder(std::size_t num_vms, Cycle cycles_per_slot)
    : cycles_per_slot_(cycles_per_slot) {
  IOGUARD_CHECK(num_vms >= 1);
  summary_.collected = true;
  summary_.p_by_vm.resize(num_vms);
  summary_.r_by_vm.resize(num_vms);
  summary_.fifo_by_vm.resize(num_vms);
}

void JitterRecorder::record(JitterChannel channel, VmId vm, TaskId task,
                            Slot intended, Slot actual) {
  IOGUARD_DCHECK(actual >= intended);
  const Slot deviation = actual >= intended ? actual - intended : 0;
  std::vector<HdrHistogram>& series =
      channel == JitterChannel::kPChannel   ? summary_.p_by_vm
      : channel == JitterChannel::kRChannel ? summary_.r_by_vm
                                            : summary_.fifo_by_vm;
  const std::size_t vm_index = vm.valid() ? vm.value : 0;
  IOGUARD_CHECK(vm_index < series.size());
  series[vm_index].record(deviation * cycles_per_slot_);
  if (task.valid()) {
    if (task.value >= by_task_.size()) by_task_.resize(task.value + 1);
    TaskJitter& t = by_task_[task.value];
    t.task = task.value;
    ++t.ops;
    t.worst_slots = std::max<std::uint64_t>(t.worst_slots, deviation);
  }
}

void JitterRecorder::record_translator(DeviceId device, Cycle jitter_cycles) {
  std::vector<HdrHistogram>& series = summary_.translator_by_device;
  const std::size_t index = device.valid() ? device.value : 0;
  if (index >= series.size()) series.resize(index + 1);
  series[index].record(jitter_cycles);
}

JitterSummary JitterRecorder::harvest() {
  for (const TaskJitter& t : by_task_)
    if (t.ops > 0) summary_.by_task.push_back(t);
  by_task_.clear();
  return std::exchange(summary_, {});
}

}  // namespace ioguard
