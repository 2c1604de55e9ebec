// Property-based tests for the Sec. IV analysis, using parameterized sweeps:
//  * sbf(sigma, t) equals a brute-force sliding-window minimum and satisfies
//    the structural identities of Eqs. (1)-(2);
//  * sbf(Gamma, t) (Eq. 8) equals the supply of the Shin & Lee worst-case
//    pattern;
//  * Theorems 2/4 are sound and agree with the exhaustive Theorems 1/3;
//  * admitted task sets never miss deadlines in simulation (empirical
//    soundness of the whole two-layer analysis).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "sched/admission.hpp"
#include "sched/edf_ref.hpp"
#include "sched/sbf.hpp"
#include "sched/server_design.hpp"
#include "sched/slot_table.hpp"
#include "workload/arrivals.hpp"

namespace ioguard::sched {
namespace {

using workload::TaskSet;

TimeSlotTable random_table(Rng& rng, Slot h, double busy_frac) {
  TimeSlotTable t(h);
  for (Slot s = 0; s < h; ++s)
    if (rng.bernoulli(busy_frac)) t.reserve(s, TaskId{0});
  if (t.free_slots() == 0) t.release(0);  // keep at least one free slot
  return t;
}

/// Brute-force sbf: minimum free slots over every window of length t
/// starting anywhere in one hyper-period (the table repeats), sliding the
/// window one slot at a time.
Slot brute_sbf(const TimeSlotTable& table, Slot t) {
  if (t == 0) return 0;
  const Slot h = table.hyperperiod();
  Slot got = 0;
  for (Slot i = 0; i < t; ++i)
    if (table.is_free(i % h)) ++got;
  Slot best = got;
  for (Slot start = 1; start < h; ++start) {
    got -= table.is_free(start - 1) ? 1 : 0;
    got += table.is_free((start - 1 + t) % h) ? 1 : 0;
    best = std::min(best, got);
  }
  return best;
}

// -------------------------------------------------- sbf(sigma, t) properties

class TableSupplyProperty : public ::testing::TestWithParam<int> {};

TEST_P(TableSupplyProperty, MatchesBruteForceAndStructuralIdentities) {
  Rng rng(1000 + GetParam());
  const Slot h = 5 + rng.uniform_int(0, 45);
  const auto table = random_table(rng, h, rng.uniform(0.2, 0.8));
  const TableSupply supply(table);
  const Slot f = table.free_slots();

  // Worst supply deficit F*t - H*free(W) over windows W of length t <= H.
  SlotDelta deficit = 0;
  for (Slot t = 0; t <= h; ++t) {
    const auto behind = static_cast<SlotDelta>(f * t) -
                        static_cast<SlotDelta>(h * brute_sbf(table, t));
    deficit = std::max(deficit, behind);
  }

  Slot prev = 0;
  for (Slot t = 0; t <= 3 * h; ++t) {
    const Slot got = supply.sbf(t);
    // Eq. (1)/(2) against brute force within one period...
    if (t < h) {
      EXPECT_EQ(got, brute_sbf(table, t)) << "t=" << t;
    }
    // ...and the periodic extension identity for larger t.
    EXPECT_EQ(supply.sbf(t + h), got + f) << "t=" << t;
    // Supply is monotone and 1-Lipschitz (one slot per slot at most).
    EXPECT_GE(got, prev);
    EXPECT_LE(got - prev, 1u);
    EXPECT_LE(got, t);
    // The deficit bound never over-promises and uses the exact deficit.
    EXPECT_LE(supply.lsbf(t), got) << "t=" << t;
    const auto share = static_cast<SlotDelta>(f * t);
    const Slot want =
        share > deficit ? static_cast<Slot>(share - deficit + h - 1) / h : 0;
    EXPECT_EQ(supply.lsbf(t), want) << "t=" << t;
    prev = got;
  }
  // A full period always supplies exactly F.
  EXPECT_EQ(supply.sbf(h), f);
}

INSTANTIATE_TEST_SUITE_P(RandomTables, TableSupplyProperty,
                         ::testing::Range(0, 25));

// ------------------------------------------------- sbf(Gamma, t) properties

class ServerSupplyProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ServerSupplyProperty, MatchesWorstCasePattern) {
  const Slot pi = static_cast<Slot>(std::get<0>(GetParam()));
  const Slot theta = static_cast<Slot>(std::get<1>(GetParam()));
  if (theta > pi) GTEST_SKIP();
  const ServerParams g{pi, theta};

  // Shin & Lee worst case: the budget arrives at the start of period 0 and
  // as late as possible in every later period, leaving a 2(Pi-Theta)
  // blackout. The worst window starts right after the period-0 budget.
  auto pattern = [&](Slot s) {
    if (s < theta) return true;       // period 0: early budget
    if (s < pi) return false;        // rest of period 0: nothing
    return (s % pi) >= pi - theta;   // later periods: late budget
  };
  for (Slot t = 0; t <= 4 * pi; ++t) {
    Slot brute = 0;
    for (Slot i = 0; i < t; ++i)
      if (pattern(theta + i)) ++brute;
    EXPECT_EQ(sbf_server(g, t), brute) << "Pi=" << pi << " Theta=" << theta
                                       << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PiThetaGrid, ServerSupplyProperty,
    ::testing::Combine(::testing::Values(2, 3, 5, 8, 13),
                       ::testing::Values(1, 2, 3, 5, 8)));

// ----------------------------------------------------- dbf(tau, t) property

class SporadicDemandProperty : public ::testing::TestWithParam<int> {};

TEST_P(SporadicDemandProperty, MatchesJobCountingBruteForce) {
  Rng rng(500 + GetParam());
  const Slot period = 2 + rng.uniform_int(0, 30);
  const Slot deadline = 1 + rng.uniform_int(0, period - 1);
  const Slot wcet = 1 + rng.uniform_int(0, deadline - 1 ? deadline - 1 : 0);

  for (Slot t = 0; t <= 5 * period; ++t) {
    // Brute force: jobs released at 0, T, 2T, ... with deadline r + D; count
    // those with release >= 0 and deadline <= t.
    Slot demand = 0;
    for (Slot r = 0; r + deadline <= t; r += period) demand += wcet;
    EXPECT_EQ(dbf_sporadic(period, wcet, deadline, t), demand)
        << "T=" << period << " C=" << wcet << " D=" << deadline << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSporadic, SporadicDemandProperty,
                         ::testing::Range(0, 30));

// -------------------------------------- Theorem 2 vs exhaustive Theorem 1

/// Unscreened G-level check: every multiple of every Pi below `bound`, in
/// ascending order, against brute_sbf (memoised per residue mod H; windows
/// longer than H hold floor(t/H) full periods of F free slots).
AdmissionResult unscreened_check(const TimeSlotTable& table,
                                 const std::vector<ServerParams>& servers,
                                 Slot bound) {
  const Slot h = table.hyperperiod();
  std::vector<Slot> by_residue(h, kNeverSlot);
  std::vector<Slot> steps;
  for (const auto& g : servers)
    for (Slot t = g.pi; t < bound; t += g.pi) steps.push_back(t);
  std::sort(steps.begin(), steps.end());
  AdmissionResult r;
  r.checked_until = bound;
  for (const Slot t : steps) {
    Slot& partial = by_residue[t % h];
    if (partial == kNeverSlot) partial = brute_sbf(table, t % h);
    Slot demand = 0;
    for (const auto& g : servers) demand += dbf_server(g, t);
    if (demand > partial + (t / h) * table.free_slots()) {
      r.violation_t = t;
      return r;
    }
  }
  r.schedulable = true;
  return r;
}

void expect_same_result(const AdmissionResult& got, const AdmissionResult& want,
                        const char* what) {
  EXPECT_EQ(got.schedulable, want.schedulable) << what;
  EXPECT_EQ(got.checked_until, want.checked_until) << what;
  EXPECT_EQ(got.violation_t, want.violation_t) << what;
}

/// Compares theorem1_exhaustive and theorem2_check field by field with the
/// unscreened reference at the bounds they are specified with.
void expect_global_checks_match_reference(
    const TimeSlotTable& table, const std::vector<ServerParams>& servers) {
  const TableSupply supply(table);
  const Slot h = table.hyperperiod();
  const Slot f = table.free_slots();

  Slot l = h;
  for (const auto& g : servers)
    l = workload::checked_lcm(l, g.pi, Slot{1} << 26);
  const auto t1 = theorem1_exhaustive(supply, servers);
  expect_same_result(t1, unscreened_check(table, servers, l + 1), "Theorem 1");

  // Exact slack sign: F/H > sum(Theta/Pi) over the common denominator.
  Slot common = 1;
  for (const auto& g : servers) common = std::lcm(common, g.pi);
  Slot demand = 0;
  for (const auto& g : servers) demand += g.theta * (common / g.pi);
  double bw = 0.0;
  for (const auto& g : servers) bw += g.bandwidth();
  const double c = supply.bandwidth() - bw;
  const auto t2 = theorem2_check(supply, servers);
  if (f * common > h * demand && c > 0.0) {
    const double fd = static_cast<double>(f);
    const double hd = static_cast<double>(h);
    const auto bound =
        static_cast<Slot>(std::ceil(fd * ((hd - 1.0) / hd) / c)) + 1;
    expect_same_result(t2, unscreened_check(table, servers, bound),
                       "Theorem 2");
    // With positive slack Theorem 2 is exact w.r.t. Theorem 1.
    EXPECT_EQ(t2.schedulable, t1.schedulable);
  } else {
    // Without slack Theorem 2 rejects by its stated limitation.
    expect_same_result(t2, AdmissionResult{}, "Theorem 2 without slack");
  }
}

class GlobalAdmissionProperty : public ::testing::TestWithParam<int> {};

TEST_P(GlobalAdmissionProperty, Theorem2NeverDisagreesWithTheorem1) {
  Rng rng(9000 + GetParam());
  const Slot h = 8 + rng.uniform_int(0, 24);
  const auto table = random_table(rng, h, rng.uniform(0.1, 0.6));

  std::vector<ServerParams> servers;
  const std::size_t n = 1 + rng.index(4);
  for (std::size_t i = 0; i < n; ++i) {
    const Slot pi = 2 + rng.uniform_int(0, 14);
    const Slot theta = 1 + rng.uniform_int(0, pi - 1);
    servers.push_back({pi, theta});
  }
  expect_global_checks_match_reference(table, servers);
}

TEST_P(GlobalAdmissionProperty, SpreadTablesMatchUnscreenedReference) {
  // Spread sigma* tables as the case study builds them, H in the hundreds
  // to thousands, with servers sized near the free bandwidth so that both
  // verdicts occur and the screen decides close calls.
  Rng rng(9500 + GetParam());
  static constexpr Slot kPeriods[] = {100, 125, 200, 250, 400, 500, 1000, 2000};
  TaskSet predefined;
  const std::size_t tasks = 1 + rng.index(5);
  const double util = rng.uniform(0.1, 0.6);
  for (std::size_t i = 0; i < tasks; ++i) {
    workload::IoTaskSpec s;
    s.id = TaskId{static_cast<std::uint32_t>(i)};
    s.vm = VmId{0};
    s.device = DeviceId{0};
    s.name = std::string("p").append(std::to_string(i));
    s.kind = workload::TaskKind::kPredefined;
    s.period = kPeriods[rng.index(std::size(kPeriods))];
    s.deadline = s.period;
    s.wcet = std::max<Slot>(
        1, static_cast<Slot>(util / static_cast<double>(tasks) *
                             static_cast<double>(s.period)));
    s.payload_bytes = 8;
    predefined.add(s);
  }
  const auto build = build_time_slot_table(predefined);
  ASSERT_TRUE(build.feasible) << build.failure;
  ASSERT_GE(build.table.hyperperiod(), 100u);

  static constexpr Slot kPis[] = {8, 10, 16, 20, 25, 40, 50, 80, 100};
  const double target =
      TableSupply(build.table).bandwidth() * rng.uniform(0.5, 1.05);
  std::vector<ServerParams> servers;
  const std::size_t n = 1 + rng.index(4);
  for (std::size_t i = 0; i < n; ++i) {
    const Slot pi = kPis[rng.index(std::size(kPis))];
    const auto theta = static_cast<Slot>(std::llround(
        target / static_cast<double>(n) * static_cast<double>(pi)));
    servers.push_back({pi, std::clamp<Slot>(theta, 1, pi)});
  }
  expect_global_checks_match_reference(build.table, servers);
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, GlobalAdmissionProperty,
                         ::testing::Range(0, 40));

// ------------------------------------------ Theorem 4 empirical soundness

class VmAdmissionProperty : public ::testing::TestWithParam<int> {};

TEST_P(VmAdmissionProperty, AdmittedTaskSetsNeverMissOnWorstCaseSupply) {
  Rng rng(7100 + GetParam());
  const Slot pi = 4 + rng.uniform_int(0, 12);
  const Slot theta = 1 + rng.uniform_int(0, pi - 1);
  const ServerParams g{pi, theta};

  TaskSet ts;
  const std::size_t n = 1 + rng.index(4);
  for (std::size_t i = 0; i < n; ++i) {
    workload::IoTaskSpec s;
    s.id = TaskId{static_cast<std::uint32_t>(i)};
    s.vm = VmId{0};
    s.device = DeviceId{0};
    s.name = std::string("x").append(std::to_string(i));
    s.period = 20 + rng.uniform_int(0, 180);
    s.deadline = s.period - rng.uniform_int(0, s.period / 4);
    s.wcet = 1 + rng.uniform_int(0, std::max<Slot>(1, s.deadline / 8) - 1);
    s.payload_bytes = 8;
    ts.add(s);
  }

  if (!theorem4_check(g, ts)) GTEST_SKIP() << "not admitted";

  // Simulate P-EDF on the worst-case periodic-resource supply with strictly
  // periodic (densest sporadic) releases and full WCET demand.
  workload::ArrivalConfig cfg;
  cfg.horizon = 40 * ts.hyperperiod() < 400000 ? 4 * ts.hyperperiod() : 100000;
  cfg.jitter_frac = 0.0;
  cfg.exec_frac_lo = cfg.exec_frac_hi = 1.0;
  const auto trace = workload::generate_trace(ts, cfg);
  auto worst_supply = [pi, theta](Slot s) {
    if (s < theta) return true;
    if (s < pi) return false;
    return (s % pi) >= pi - theta;
  };
  const auto r = simulate_edf(trace, worst_supply, cfg.horizon);
  EXPECT_EQ(r.misses, 0u) << "Pi=" << pi << " Theta=" << theta;
}

INSTANTIATE_TEST_SUITE_P(RandomVms, VmAdmissionProperty,
                         ::testing::Range(0, 50));

// ---------------------------------- end-to-end: design + simulate a device

class DesignSimProperty : public ::testing::TestWithParam<int> {};

TEST_P(DesignSimProperty, DesignedServersDeliverTheirBudgets) {
  Rng rng(31000 + GetParam());
  // Random table with >= 40% free slots.
  const Slot h = 20 + rng.uniform_int(0, 30);
  const auto table = random_table(rng, h, 0.3);
  const TableSupply supply(table);

  // Two VMs with light task sets.
  std::vector<TaskSet> vms(2);
  for (std::size_t v = 0; v < 2; ++v) {
    workload::IoTaskSpec s;
    s.id = TaskId{static_cast<std::uint32_t>(v)};
    s.vm = VmId{static_cast<std::uint32_t>(v)};
    s.device = DeviceId{0};
    s.name = "vm" + std::to_string(v);
    s.period = 100 + rng.uniform_int(0, 100);
    s.deadline = s.period;
    s.wcet = 1 + rng.uniform_int(0, 5);
    s.payload_bytes = 8;
    vms[v].add(s);
  }

  const auto design = design_system(supply, vms);
  if (!design.feasible) GTEST_SKIP() << design.reason;

  // Simulate the union of both VMs' tasks under EDF on the table's free
  // slots: the two-layer guarantee implies the flat schedule also fits.
  TaskSet merged;
  for (const auto& vm : vms)
    for (const auto& t : vm.tasks()) merged.add(t);
  workload::ArrivalConfig cfg;
  cfg.horizon = 50 * h;
  cfg.jitter_frac = 0.0;
  cfg.exec_frac_lo = cfg.exec_frac_hi = 1.0;
  const auto trace = workload::generate_trace(merged, cfg);
  const auto r = simulate_edf(
      trace, [&](Slot s) { return table.is_free_abs(s); }, cfg.horizon);
  EXPECT_EQ(r.misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomDesigns, DesignSimProperty,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace ioguard::sched
