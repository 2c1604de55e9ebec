#include "analysis/verify_supply.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "sched/admission.hpp"

namespace ioguard::analysis {

namespace {

std::string at_t(Slot t) { return "t=" + std::to_string(t); }

/// Sample instants in [0, horizon]: dense near 0 (where sbf has the most
/// structure), strided beyond. Each fresh residue of TableSupply::sbf costs
/// O(H), so the point count is bounded to keep verification O(H * samples).
std::vector<Slot> sample_points(Slot horizon) {
  constexpr Slot kDense = 1024;
  constexpr Slot kStrided = 1024;
  std::vector<Slot> pts;
  if (horizon <= kDense + kStrided) {
    // IOGUARD_LINT_ALLOW(LNT009: tiny-horizon sampler -- every point is checked)
    for (Slot t = 0; t <= horizon; ++t) pts.push_back(t);
    return pts;
  }
  for (Slot t = 0; t <= kDense; ++t) pts.push_back(t);
  const Slot stride = (horizon - kDense) / kStrided + 1;
  // IOGUARD_LINT_ALLOW(LNT009: strided sampler, bounded point count)
  for (Slot t = kDense + stride; t < horizon; t += stride) pts.push_back(t);
  pts.push_back(horizon);
  return pts;
}

}  // namespace

void verify_supply_function(const std::function<Slot(Slot)>& sbf, Slot h,
                            Slot f, const SupplyCheckOptions& options,
                            Report& report) {
  IOGUARD_CHECK_GT(h, Slot{0});
  const Slot horizon =
      options.sample_horizon > 0 ? options.sample_horizon : 2 * h + 2;

  // sbf(0) must be 0 and the function must never out-supply the window.
  if (sbf(0) != 0)
    report.add(DiagCode::kSupExceedsWindow,
               "sbf(0) = " + std::to_string(sbf(0)) + ", expected 0", at_t(0));

  const auto pts = sample_points(horizon);
  Slot prev = 0, prev_t = 0;
  bool monotone_ok = true, window_ok = true;
  for (const Slot t : pts) {
    if (t == 0) continue;
    const Slot cur = sbf(t);
    if (window_ok && cur > t) {
      report.add(DiagCode::kSupExceedsWindow,
                 "sbf(" + std::to_string(t) + ") = " + std::to_string(cur) +
                     " exceeds the window length",
                 at_t(t));
      window_ok = false;  // one finding per property keeps reports readable
    }
    if (monotone_ok && cur < prev) {
      report.add(DiagCode::kSupNonMonotone,
                 "sbf drops from " + std::to_string(prev) + " at t=" +
                     std::to_string(prev_t) + " to " + std::to_string(cur) +
                     " at t=" + std::to_string(t),
                 at_t(t));
      monotone_ok = false;
    }
    prev = cur;
    prev_t = t;
  }

  // Eq. (2): the supply of t + H is the supply of t plus one period's F.
  bool extension_ok = true;
  for (const Slot t : sample_points(std::min(horizon, h))) {
    if (!extension_ok) break;
    const Slot lhs = sbf(t + h);
    const Slot rhs = sbf(t) + f;
    if (lhs != rhs) {
      report.add(DiagCode::kSupPeriodicExtension,
                 "sbf(t+H) = " + std::to_string(lhs) + " but sbf(t) + F = " +
                     std::to_string(rhs) + " at t=" + std::to_string(t) +
                     " (H=" + std::to_string(h) + ", F=" + std::to_string(f) +
                     ")",
                 at_t(t));
      extension_ok = false;
    }
  }

  // Superadditivity: a window of length a+b contains disjoint windows of
  // lengths a and b, so min-supply cannot fall below the sum. Deterministic
  // stride sampling over [1, horizon]^2.
  const std::size_t n = std::max<std::size_t>(options.superadditivity_samples,
                                              std::size_t{1});
  bool super_ok = true;
  for (std::size_t i = 0; i < n && super_ok; ++i) {
    const Slot a = 1 + (static_cast<Slot>(i) * 7919) % horizon;
    const Slot b = 1 + (static_cast<Slot>(i) * 104729 + 13) % horizon;
    if (sbf(a) + sbf(b) > sbf(a + b)) {
      report.add(DiagCode::kSupSuperadditivity,
                 "sbf(" + std::to_string(a) + ") + sbf(" + std::to_string(b) +
                     ") = " + std::to_string(sbf(a) + sbf(b)) +
                     " exceeds sbf(" + std::to_string(a + b) + ") = " +
                     std::to_string(sbf(a + b)),
                 "a=" + std::to_string(a) + " b=" + std::to_string(b));
      super_ok = false;
    }
  }
}

void verify_supply(const sched::TableSupply& supply,
                   const SupplyCheckOptions& options, Report& report) {
  verify_supply_function([&](Slot t) { return supply.sbf(t); },
                         supply.hyperperiod(), supply.free_per_period(),
                         options, report);
}

void verify_global_admission(const sched::TableSupply& supply,
                             const std::vector<sched::ServerParams>& servers,
                             const SupplyCheckOptions& options,
                             Report& report) {
  // Skip servers that carry no budget (placeholders for task-less VMs).
  std::vector<sched::ServerParams> active;
  for (const auto& g : servers)
    if (g.theta > 0) active.push_back(g);
  if (active.empty()) return;

  for (const auto& g : active) {
    if (g.pi == 0 || g.theta > g.pi) return;  // LVLxxx territory; bail here
  }

  if (!sched::global_slack(supply, active)) {
    double bw = 0.0;
    for (const auto& g : active) bw += g.bandwidth();
    const double slack = supply.bandwidth() - bw;
    report.add(DiagCode::kSupZeroSlack,
               "slack c = F/H - sum(Theta/Pi) = " + std::to_string(slack) +
                   " (F/H = " + std::to_string(supply.bandwidth()) +
                   ", sum = " + std::to_string(bw) +
                   "); Theorem 2 is inapplicable and the server set "
                   "over-commits the table");
    return;  // the pseudo-polynomial bound below is meaningless without slack
  }

  // Theorem 1 (exact, exhaustive over lcm) vs Theorem 2 (pseudo-polynomial):
  // with positive slack both are exact, so any disagreement is an
  // implementation fault in sbf/dbf or in the derived check bound.
  sched::AdmissionResult exact;
  try {
    exact = sched::theorem1_exhaustive(supply, active, /*t_max=*/0,
                                       options.lcm_cap);
  } catch (const CheckFailure&) {
    report.add(DiagCode::kSupCheckSkipped,
               "lcm(H, Pi...) exceeds the configured cap; Theorem 1 vs "
               "Theorem 2 agreement not checked");
    return;
  }
  check_global_agreement(exact, sched::theorem2_check(supply, active), report);
}

void check_global_agreement(const sched::AdmissionResult& exact,
                            const sched::AdmissionResult& pseudo,
                            Report& report) {
  if (exact.schedulable == pseudo.schedulable) return;
  std::string detail =
      "Theorem 1 says " +
      std::string(exact.schedulable ? "schedulable" : "unschedulable") +
      ", Theorem 2 says " +
      std::string(pseudo.schedulable ? "schedulable" : "unschedulable");
  if (exact.violation_t)
    detail += "; first violation at t=" + std::to_string(*exact.violation_t);
  if (pseudo.violation_t)
    detail +=
        "; Theorem 2 violation at t=" + std::to_string(*pseudo.violation_t);
  report.add(DiagCode::kSupTheoremDisagreement, std::move(detail));
}

}  // namespace ioguard::analysis
