#include "sched/mcs_admission.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace ioguard::sched {

ServerParams inflate_server(const ServerParams& lo, double hi_budget_factor) {
  IOGUARD_CHECK_MSG(hi_budget_factor >= 1.0,
                    "HI budget factor must not deflate budgets");
  ServerParams hi = lo;
  hi.theta = std::min(
      lo.pi, static_cast<Slot>(std::ceil(static_cast<double>(lo.theta) *
                                         hi_budget_factor)));
  return hi;
}

workload::TaskSet hi_mode_taskset(const workload::TaskSet& vm_tasks) {
  workload::TaskSet hi;
  for (auto t : vm_tasks.tasks()) {
    if (!t.hi_criticality()) continue;
    t.wcet = std::min(t.effective_wcet_hi(), t.deadline);
    t.wcet_hi = 0;  // collapsed: the HI view is single-budget
    hi.add(std::move(t));
  }
  return hi;
}

Slot transition_carry_over(const workload::TaskSet& vm_tasks) {
  Slot s = 0;
  for (const auto& t : vm_tasks.tasks()) {
    if (!t.hi_criticality()) continue;
    const Slot c_hi = std::min(t.effective_wcet_hi(), t.deadline);
    if (c_hi > t.wcet) s += c_hi - t.wcet;
  }
  return s;
}

AdmissionResult mcs_transition_check(const ServerParams& hi_server,
                                     const workload::TaskSet& hi_tasks,
                                     Slot carry_over) {
  AdmissionResult r;
  if (hi_tasks.empty()) {
    r.schedulable = true;
    return r;
  }
  // Theorem-4 bound of the HI regime; the carry-over is a constant offset,
  // so it widens the check bound but leaves the asymptotics untouched.
  const auto bound = local_check_bound(hi_server, hi_tasks, carry_over);
  if (!bound) return r;
  r.checked_until = *bound;

  // The HI demand walk, its running sum starting at the carry-over.
  DemandWalk walk(hi_tasks, *bound, carry_over);
  while (walk.next()) {
    if (walk.dbf() > sbf_server(hi_server, walk.t())) {
      r.violation_t = walk.t();
      return r;
    }
  }
  r.schedulable = true;
  return r;
}

McsAdmissionResult mcs_admission_check(const ServerParams& lo_server,
                                       const workload::TaskSet& vm_tasks,
                                       double hi_budget_factor) {
  McsAdmissionResult out;

  // Regime 1: LO mode is the plain Theorem 4 question.
  out.lo = theorem4_check(lo_server, vm_tasks);
  if (!out.lo) {
    out.reason = "LO mode (Theorem 4) rejected";
    return out;
  }

  const workload::TaskSet hi_tasks = hi_mode_taskset(vm_tasks);
  const ServerParams hi_server = inflate_server(lo_server, hi_budget_factor);

  // Regime 2: HI mode, HI tasks at C_hi against the inflated server.
  out.hi = theorem4_check(hi_server, hi_tasks);
  if (!out.hi) {
    out.reason = "HI mode (Theorem 4 at C_hi) rejected";
    return out;
  }

  // Regime 3: the switch instant with its carry-over surcharge.
  out.transition = mcs_transition_check(hi_server, hi_tasks,
                                        transition_carry_over(vm_tasks));
  if (!out.transition) {
    out.reason = "mode transition (carry-over) rejected";
    return out;
  }

  out.schedulable = true;
  return out;
}

}  // namespace ioguard::sched
