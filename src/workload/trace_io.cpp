#include "workload/trace_io.hpp"

#include <ostream>

namespace ioguard::workload {

void write_taskset_csv(std::ostream& os, const TaskSet& tasks) {
  os << "id,vm,device,name,class,kind,period,wcet,deadline,offset,payload\n";
  for (const auto& t : tasks.tasks()) {
    os << t.id.value << ',' << t.vm.value << ',' << t.device.value << ','
       << t.name << ',' << to_string(t.cls) << ',' << to_string(t.kind) << ','
       << t.period << ',' << t.wcet << ',' << t.deadline << ',' << t.offset
       << ',' << t.payload_bytes << '\n';
  }
}

}  // namespace ioguard::workload
