// Reference slot-level scheduler used to validate the analysis empirically:
// a preemptive-EDF simulator over an arbitrary slot supply.
#pragma once

#include <functional>
#include <vector>

#include "common/types.hpp"
#include "workload/task.hpp"

namespace ioguard::sched {

/// Whether absolute slot `t` is available to the scheduler under test.
using SupplyFn = std::function<bool(Slot)>;

/// Per-job outcome of a reference simulation.
struct JobOutcome {
  JobId job;
  TaskId task;
  Slot release = 0;
  Slot absolute_deadline = 0;
  Slot completion = kNeverSlot;  ///< slot after which the job finished
  [[nodiscard]] bool missed() const { return completion > absolute_deadline; }
  [[nodiscard]] Slot response_time() const {
    return completion == kNeverSlot ? kNeverSlot : completion - release;
  }
};

struct RefSimResult {
  std::vector<JobOutcome> jobs;
  std::size_t misses = 0;        ///< deadline misses (incl. unfinished)
  Slot busy_slots = 0;           ///< slots actually consumed
};

/// Simulates preemptive EDF at slot granularity: at every supplied slot the
/// pending job with the earliest absolute deadline runs. Jobs past `horizon`
/// that never finish count as misses.
RefSimResult simulate_edf(const std::vector<workload::Job>& trace,
                          const SupplyFn& supply, Slot horizon);

}  // namespace ioguard::sched
