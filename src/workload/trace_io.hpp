// CSV export of task sets (`ioguard_cli --export-tasks`), so a generated
// workload can be inspected or versioned.
//
// Columns: id,vm,device,name,class,kind,period,wcet,deadline,offset,payload
#pragma once

#include <iosfwd>

#include "workload/task.hpp"

namespace ioguard::workload {

void write_taskset_csv(std::ostream& os, const TaskSet& tasks);

}  // namespace ioguard::workload
