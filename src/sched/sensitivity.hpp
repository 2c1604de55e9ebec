// Sensitivity analysis on top of the Sec. IV admission tests: how much
// margin does an admitted configuration have, and where is the bottleneck?
//
//  * breakdown_factor: the largest uniform WCET scale alpha such that the
//    task set stays schedulable (binary search over Theorem 3/4) -- the
//    classic "critical scaling factor" of sensitivity analysis.
//  * min_slack: the minimum of sbf - dbf over the checked window, i.e. how
//    many spare slots the tightest instant has.
//  * server_margin: how much budget Theta could shrink before Theorem 4
//    fails (design head-room of the G-Sched allocation).
//
// Error contract (PR 4 / ISSUE-9): these return StatusOr instead of
// sentinel values -- kInvalidArgument for unusable parameters,
// kFailedPrecondition when the configuration has no margin to measure
// (unschedulable as given, or an empty input with no tightest instant).
#pragma once

#include "common/status.hpp"
#include "sched/admission.hpp"
#include "sched/sbf.hpp"
#include "workload/task.hpp"

namespace ioguard::sched {

/// Largest alpha (WCET scale) keeping `vm_tasks` schedulable on `server`
/// per Theorem 4, found by binary search to `tolerance`; alpha is capped at
/// `alpha_max`. kFailedPrecondition when the set is not schedulable even
/// unscaled, kInvalidArgument for alpha_max < 1 or tolerance <= 0.
[[nodiscard]] StatusOr<double> breakdown_factor(
    const ServerParams& server, const workload::TaskSet& vm_tasks,
    double alpha_max = 8.0, double tolerance = 1e-3);

/// Minimum supply-minus-demand slack (in slots) of the VM-level test over
/// all demand step points up to the Theorem 4 bound. Negative values report
/// the worst violation. kFailedPrecondition when the task set is empty
/// (no instant to measure); kOutOfRange when there is no Theorem 4 bound and
/// the periods' lcm exceeds 2^22 slots (no window to measure over).
[[nodiscard]] StatusOr<SlotDelta> min_slack(const ServerParams& server,
                                            const workload::TaskSet& vm_tasks);

/// Smallest Theta' <= Theta for which Theorem 4 still passes (how much
/// budget the VM really needs); kFailedPrecondition when even Theta fails.
[[nodiscard]] StatusOr<Slot> min_required_theta(
    const ServerParams& server, const workload::TaskSet& vm_tasks);

/// Global-layer slack: minimum of sbf(sigma, t) - sum dbf(Gamma_i, t) over
/// the Theorem 2 window. Negative values report the worst violation.
/// kFailedPrecondition when `servers` is empty; kOutOfRange when there is no
/// Theorem 2 bound and lcm(H, Pi...) exceeds 2^22 slots.
[[nodiscard]] StatusOr<SlotDelta> global_min_slack(
    const TableSupply& supply, const std::vector<ServerParams>& servers);

}  // namespace ioguard::sched
