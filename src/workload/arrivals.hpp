// Job release trace generation.
//
// Pre-defined tasks release strictly periodically at offset + k*T.
// Run-time tasks are sporadic: consecutive releases are separated by
// T + Exp(jitter_frac * T), honouring the minimum-separation model of
// Sec. IV while keeping the achieved utilization below the target -- the
// paper's "adding synthetic workloads only gives a *target* utilization".
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "workload/task.hpp"

namespace ioguard::workload {

struct ArrivalConfig {
  Slot horizon = 0;            ///< generate releases in [0, horizon)
  double jitter_frac = 0.005;  ///< sporadic slack: mean extra separation / T
  double exec_frac_lo = 0.98;  ///< actual demand lower bound, fraction of C
  double exec_frac_hi = 1.0;   ///< actual demand upper bound, fraction of C
  std::uint64_t seed = 1;      ///< trace seed (vary per trial)
};

/// Generates all job releases of `tasks` in [0, horizon), sorted by release
/// slot (ties broken by task id). JobIds are dense and trace-unique. Each
/// task's releases form one stream with its own RNG fork; the streams are
/// merged in that order into one vector, reserved once, so nothing sorts.
[[nodiscard]] std::vector<Job> generate_trace(const TaskSet& tasks,
                                              const ArrivalConfig& config);

/// Minimum horizon guaranteeing at least `min_jobs` releases of every task.
[[nodiscard]] Slot horizon_for_min_jobs(const TaskSet& tasks,
                                        std::size_t min_jobs);

}  // namespace ioguard::workload
