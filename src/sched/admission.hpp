// Schedulability tests of Sec. IV: Theorem 1 (G-level, exact over one check
// bound), Theorem 2 (pseudo-polynomial G-level), Theorem 3 (L-level), and
// Theorem 4 (pseudo-polynomial L-level).
#pragma once

#include <optional>
#include <vector>

#include "sched/sbf.hpp"
#include "workload/task.hpp"

namespace ioguard::sched {

/// Outcome of an admission test, with the violating instant when rejected.
struct AdmissionResult {
  bool schedulable = false;
  Slot checked_until = 0;            ///< exclusive upper bound of checked t
  std::optional<Slot> violation_t;   ///< first t where dbf > sbf (if any)

  explicit operator bool() const { return schedulable; }
};

/// Theorem 2's slack c = F/H - sum(Theta/Pi), as the double its check bound
/// is sized with; nullopt unless c > 0 holds in exact arithmetic.
[[nodiscard]] std::optional<double> global_slack(
    const TableSupply& supply, const std::vector<ServerParams>& servers);

/// Theorem 4's slack c' = Theta/Pi - sum(C/T), as the double its check bound
/// is sized with; nullopt unless c' > 0 holds in exact arithmetic.
[[nodiscard]] std::optional<double> local_slack(
    const ServerParams& server, const workload::TaskSet& vm_tasks);

/// Theorem 2's check bound ceil(F*((H-1)/H) / c) + 1; nullopt unless the
/// slack c is positive (global_slack) and the bound fits a Slot.
[[nodiscard]] std::optional<Slot> global_check_bound(
    const TableSupply& supply, const std::vector<ServerParams>& servers);

/// Theorem 4's check bound ceil((max(T-D) + 2*Pi - Theta - 1 + carry) / c')
/// + 1, where `carry` is a constant demand added at every step (the
/// mixed-criticality transition's carry-over); nullopt unless c' is
/// positive (local_slack) and the bound fits a Slot.
[[nodiscard]] std::optional<Slot> local_check_bound(
    const ServerParams& server, const workload::TaskSet& vm_tasks,
    Slot carry = 0);

/// Theorem 1 evaluated exhaustively: checks dbf/sbf at every demand step
/// point t <= t_max (t_max defaults to lcm(H, Pi_1..Pi_n), capped). The
/// O(H) sbf(t) is looked up only where dbf(t) exceeds the O(1) lsbf(t).
AdmissionResult theorem1_exhaustive(const TableSupply& supply,
                                    const std::vector<ServerParams>& servers,
                                    Slot t_max = 0,
                                    Slot lcm_cap = Slot{1} << 26);

/// Theorem 2: pseudo-polynomial G-level test. Uses the system's actual slack
/// c = F/H - sum(Theta/Pi) (must be > 0 exactly; returns unschedulable
/// otherwise, which matches the theorem's stated limitation).
AdmissionResult theorem2_check(const TableSupply& supply,
                               const std::vector<ServerParams>& servers);

/// Theorem 3 evaluated exhaustively for VM i: checks at every step point of
/// sum dbf(tau_k, t) below t_max (defaults to lcm(Pi, T_k...), capped),
/// walked in ascending order (DemandWalk) up to the first violation.
AdmissionResult theorem3_exhaustive(const ServerParams& server,
                                    const workload::TaskSet& vm_tasks,
                                    Slot t_max = 0,
                                    Slot lcm_cap = Slot{1} << 26);

/// Theorem 4: pseudo-polynomial L-level test with the VM's actual slack
/// c' = Theta/Pi - sum(C/T) (must be > 0 exactly).
AdmissionResult theorem4_check(const ServerParams& server,
                               const workload::TaskSet& vm_tasks);

}  // namespace ioguard::sched
