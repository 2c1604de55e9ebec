#include "sched/sensitivity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ioguard::sched {

namespace {

/// Longest hyper-period the slack measures walk when Theorem 2 or 4 gives no
/// check bound (over-utilized or zero slack).
constexpr Slot kWindowCap = Slot{1} << 22;

/// Scales every WCET by alpha (ceil), clamped to the deadline.
workload::TaskSet scale_wcets(const workload::TaskSet& tasks, double alpha) {
  workload::TaskSet out;
  for (auto t : tasks.tasks()) {
    const double scaled = std::ceil(alpha * static_cast<double>(t.wcet));
    t.wcet = std::max<Slot>(1, static_cast<Slot>(scaled));
    if (t.wcet > t.deadline) t.wcet = t.deadline;  // keep the set well-formed
    out.add(std::move(t));
  }
  return out;
}

}  // namespace

StatusOr<double> breakdown_factor(const ServerParams& server,
                                  const workload::TaskSet& vm_tasks,
                                  double alpha_max, double tolerance) {
  if (alpha_max < 1.0) return InvalidArgumentError("alpha_max must be >= 1");
  if (tolerance <= 0.0) return InvalidArgumentError("tolerance must be > 0");
  if (vm_tasks.empty()) return alpha_max;
  if (!theorem4_check(server, vm_tasks))
    return FailedPreconditionError(
        "task set is not schedulable even unscaled (alpha = 1)");

  double lo = 1.0, hi = alpha_max;
  if (theorem4_check(server, scale_wcets(vm_tasks, alpha_max))) return alpha_max;
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    if (theorem4_check(server, scale_wcets(vm_tasks, mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

StatusOr<SlotDelta> min_slack(const ServerParams& server,
                              const workload::TaskSet& vm_tasks) {
  if (vm_tasks.empty())
    return FailedPreconditionError("empty task set has no slack to measure");

  // Check window mirrors theorem4_check.
  Slot bound;
  if (const auto b = local_check_bound(server, vm_tasks)) {
    bound = *b;
  } else {
    // Over-utilized: inspect a few hyper-periods to find the violation.
    const auto h = vm_tasks.hyperperiod(kWindowCap);
    if (!h)
      return OutOfRangeError(
          "no check bound and the task periods' lcm exceeds 2^22 slots: no "
          "window to measure the slack over");
    bound = 4 * *h + 1;
  }
  // Always sample at least every task's first deadline.
  for (const auto& tau : vm_tasks.tasks())
    bound = std::max(bound, tau.deadline + 1);

  SlotDelta worst = std::numeric_limits<SlotDelta>::max();
  DemandWalk walk(vm_tasks, bound);
  while (walk.next()) {
    const auto demand = static_cast<SlotDelta>(walk.dbf());
    const auto supply = static_cast<SlotDelta>(sbf_server(server, walk.t()));
    worst = std::min(worst, supply - demand);
  }
  if (worst == std::numeric_limits<SlotDelta>::max())
    return FailedPreconditionError("no demand step point inside the window");
  return worst;
}

StatusOr<Slot> min_required_theta(const ServerParams& server,
                                  const workload::TaskSet& vm_tasks) {
  if (vm_tasks.empty()) return Slot{0};
  if (!theorem4_check(server, vm_tasks))
    return FailedPreconditionError(
        "Theorem 4 fails at the given Theta; no smaller budget can pass");
  Slot lo = 1, hi = server.theta;
  while (lo < hi) {
    const Slot mid = lo + (hi - lo) / 2;
    if (theorem4_check(ServerParams{server.pi, mid}, vm_tasks)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

StatusOr<SlotDelta> global_min_slack(const TableSupply& supply,
                                     const std::vector<ServerParams>& servers) {
  if (servers.empty())
    return FailedPreconditionError("no servers: global slack is undefined");

  Slot bound;
  if (const auto b = global_check_bound(supply, servers)) {
    bound = *b;
  } else {
    Slot l = supply.hyperperiod();
    for (const auto& g : servers) {
      const auto next = workload::lcm_within(l, g.pi, kWindowCap);
      if (!next)
        return OutOfRangeError(
            "no check bound and lcm(H, Pi...) exceeds 2^22 slots: no window "
            "to measure the slack over");
      l = *next;
    }
    bound = l + 1;
  }

  SlotDelta worst = std::numeric_limits<SlotDelta>::max();
  for (const auto& g : servers) {
    for (Slot t = g.pi; t < bound; t += g.pi) {
      SlotDelta demand = 0;
      for (const auto& s : servers)
        demand += static_cast<SlotDelta>(dbf_server(s, t));
      worst = std::min(worst,
                       static_cast<SlotDelta>(supply.sbf(t)) - demand);
    }
  }
  if (worst == std::numeric_limits<SlotDelta>::max())
    return FailedPreconditionError("no demand step point inside the window");
  return worst;
}

}  // namespace ioguard::sched
