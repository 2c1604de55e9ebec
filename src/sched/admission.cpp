#include "sched/admission.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.hpp"

namespace ioguard::sched {

namespace {

__uint128_t gcd(__uint128_t a, __uint128_t b) {
  while (b != 0) {
    a %= b;
    std::swap(a, b);
  }
  return a;
}

/// A sum of slot ratios p/q held as one reduced 128-bit fraction.
class ExactRatioSum {
 public:
  /// Adds p/q (q > 0); false once the sum no longer fits 128 bits.
  bool add(Slot p, Slot q) {
    const __uint128_t g = gcd(den_, q);
    __uint128_t scaled_num = 0;
    __uint128_t scaled_p = 0;
    __uint128_t num = 0;
    __uint128_t den = 0;
    if (__builtin_mul_overflow(num_, q / g, &scaled_num) ||
        __builtin_mul_overflow(p, den_ / g, &scaled_p) ||
        __builtin_add_overflow(scaled_num, scaled_p, &num) ||
        __builtin_mul_overflow(den_ / g, q, &den))
      return false;
    const __uint128_t r = gcd(num, den);
    num_ = num / r;
    den_ = den / r;
    return true;
  }

  /// Is the sum strictly below p/q? False when the cross products overflow.
  [[nodiscard]] bool below(Slot p, Slot q) const {
    __uint128_t lhs = 0;
    __uint128_t rhs = 0;
    return !__builtin_mul_overflow(num_, q, &lhs) &&
           !__builtin_mul_overflow(p, den_, &rhs) && lhs < rhs;
  }

 private:
  __uint128_t num_ = 0;
  __uint128_t den_ = 1;
};

/// Positive-slack decision of Theorems 2 and 4. The double `c`, summed over
/// `n` ratios of at most 1, keeps sizing the check bound, and its sign is
/// trusted outside its rounding band. Inside the band `exact_positive()`
/// decides: an exactly-zero slack can round to +1e-16 and size a ~1e17-slot
/// bound. A sum too large for 128 bits counts as not positive; any slack in
/// the band would size a bound no check could walk.
template <class ExactFn>
std::optional<double> confirmed_slack(double c, std::size_t n,
                                      ExactFn&& exact_positive) {
  const double band = 8.0 * static_cast<double>(n + 2) *
                      std::numeric_limits<double>::epsilon();
  if (!(c > 0.0)) return std::nullopt;
  if (c > band || exact_positive()) return c;
  return std::nullopt;
}

/// ceil(num / slack) + 1, or nullopt when the quotient does not fit a
/// Slot: a bound no check could walk, so the slack counts as not positive.
/// (Casting such a double is undefined; x86-64 GCC yields 0, a bound of 1.)
std::optional<Slot> fitting_bound(double num, double slack) {
  const double q = std::ceil(num / slack);
  // 2^64: every non-negative double below it fits, with room for the + 1.
  if (!(q >= 0.0 && q < 18446744073709551616.0)) return std::nullopt;
  return static_cast<Slot>(q) + 1;
}

}  // namespace

std::optional<double> global_slack(const TableSupply& supply,
                                   const std::vector<ServerParams>& servers) {
  double bw = 0.0;
  for (const auto& g : servers) bw += g.bandwidth();
  return confirmed_slack(supply.bandwidth() - bw, servers.size(), [&] {
    ExactRatioSum demand;
    for (const auto& g : servers)
      if (!demand.add(g.theta, g.pi)) return false;
    return demand.below(supply.free_per_period(), supply.hyperperiod());
  });
}

std::optional<double> local_slack(const ServerParams& server,
                                  const workload::TaskSet& vm_tasks) {
  return confirmed_slack(
      server.bandwidth() - vm_tasks.utilization(), vm_tasks.size(), [&] {
        ExactRatioSum demand;
        for (const auto& tau : vm_tasks.tasks())
          if (!demand.add(tau.wcet, tau.period)) return false;
        return demand.below(server.theta, server.pi);
      });
}

std::optional<Slot> global_check_bound(
    const TableSupply& supply, const std::vector<ServerParams>& servers) {
  const auto c = global_slack(supply, servers);
  if (!c) return std::nullopt;
  const double h = static_cast<double>(supply.hyperperiod());
  const double f = static_cast<double>(supply.free_per_period());
  // t* < F * ((H-1)/H) / c
  return fitting_bound(f * ((h - 1.0) / h), *c);
}

std::optional<Slot> local_check_bound(const ServerParams& server,
                                      const workload::TaskSet& vm_tasks,
                                      Slot carry) {
  const auto cprime = local_slack(server, vm_tasks);
  if (!cprime) return std::nullopt;
  Slot max_laxity = 0;  // max(T_k - D_k)
  for (const auto& tau : vm_tasks.tasks())
    max_laxity = std::max(max_laxity, tau.period - tau.deadline);
  // t* < (max(T-D) + 2*Pi - Theta - 1 + carry) / c'
  const double num = static_cast<double>(max_laxity) +
                     2.0 * static_cast<double>(server.pi) -
                     static_cast<double>(server.theta) - 1.0 +
                     static_cast<double>(carry);
  return fitting_bound(num, *cprime);
}

AdmissionResult theorem1_exhaustive(const TableSupply& supply,
                                    const std::vector<ServerParams>& servers,
                                    Slot t_max, Slot lcm_cap) {
  if (servers.empty()) {
    AdmissionResult r;
    r.schedulable = true;
    return r;
  }
  if (t_max == 0) {
    // lcm of {H} u {Pi_i}: the exact check bound stated below Theorem 1.
    Slot l = supply.hyperperiod();
    for (const auto& g : servers) l = workload::checked_lcm(l, g.pi, lcm_cap);
    t_max = l + 1;
  }
  // One cursor per distinct Pi, stepping through its multiples with the
  // summed Theta of the servers sharing it. Walking the cursors in merged
  // order visits every demand step once, ascending, with dbf(t) kept as a
  // running sum.
  struct Cursor {
    Slot pi;
    Slot theta;
    Slot next;
  };
  std::vector<Cursor> cursors;
  for (const auto& g : servers) {
    const auto same =
        std::find_if(cursors.begin(), cursors.end(),
                     [&](const Cursor& c) { return c.pi == g.pi; });
    if (same != cursors.end()) {
      same->theta += g.theta;
    } else {
      cursors.push_back({g.pi, g.theta, g.pi});
    }
  }

  AdmissionResult r;
  r.checked_until = t_max;
  Slot demand = 0;
  for (;;) {
    Slot t = kNeverSlot;
    for (const auto& c : cursors) t = std::min(t, c.next);
    if (t >= t_max) break;
    for (auto& c : cursors) {
      if (c.next != t) continue;
      demand += c.theta;
      c.next += c.pi;
    }
    // sbf(t) costs an O(H) window scan per new residue t mod H; the O(1)
    // lsbf(t) <= sbf(t) settles most steps without it.
    if (demand > supply.lsbf(t) && demand > supply.sbf(t)) {
      r.violation_t = t;
      return r;
    }
  }
  r.schedulable = true;
  return r;
}

AdmissionResult theorem2_check(const TableSupply& supply,
                               const std::vector<ServerParams>& servers) {
  AdmissionResult r;
  if (servers.empty()) {
    r.schedulable = true;
    return r;
  }
  const auto bound = global_check_bound(supply, servers);
  if (!bound) return r;  // Theorem 2's stated limitation: requires c > 0
  return theorem1_exhaustive(supply, servers, *bound);
}

AdmissionResult theorem3_exhaustive(const ServerParams& server,
                                    const workload::TaskSet& vm_tasks,
                                    Slot t_max, Slot lcm_cap) {
  if (vm_tasks.empty()) {
    AdmissionResult r;
    r.schedulable = true;
    return r;
  }
  if (t_max == 0) {
    Slot l = server.pi;
    for (const auto& tau : vm_tasks.tasks())
      l = workload::checked_lcm(l, tau.period, lcm_cap);
    t_max = l + 1;
  }
  // Demand only increases at its steps and supply is non-decreasing, so
  // checking exactly at the step instants is sufficient.
  AdmissionResult r;
  r.checked_until = t_max;
  DemandWalk walk(vm_tasks, t_max);
  while (walk.next()) {
    if (walk.dbf() > sbf_server(server, walk.t())) {
      r.violation_t = walk.t();
      return r;
    }
  }
  r.schedulable = true;
  return r;
}

AdmissionResult theorem4_check(const ServerParams& server,
                               const workload::TaskSet& vm_tasks) {
  AdmissionResult r;
  if (vm_tasks.empty()) {
    r.schedulable = true;
    return r;
  }
  const auto bound = local_check_bound(server, vm_tasks);
  if (!bound) return r;  // Theorem 4 requires c' > 0
  return theorem3_exhaustive(server, vm_tasks, *bound);
}

}  // namespace ioguard::sched
