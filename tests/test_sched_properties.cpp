// Property-based tests for the Sec. IV analysis, using parameterized sweeps:
//  * sbf(sigma, t) equals a brute-force sliding-window minimum and satisfies
//    the structural identities of Eqs. (1)-(2);
//  * sbf(Gamma, t) (Eq. 8) equals the supply of the Shin & Lee worst-case
//    pattern;
//  * Theorems 2/4 are sound and agree with the exhaustive Theorems 1/3;
//  * the L-level demand walk reproduces the sorted step scan it replaced;
//  * admitted task sets never miss deadlines in simulation (empirical
//    soundness of the whole two-layer analysis).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "sched/admission.hpp"
#include "sched/edf_ref.hpp"
#include "sched/mcs_admission.hpp"
#include "sched/sbf.hpp"
#include "sched/sensitivity.hpp"
#include "sched/server_design.hpp"
#include "sched/slot_table.hpp"
#include "sched_oracles.hpp"
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

// ------------------------------ L-level demand walk vs the sorted step scan

/// The step scan the L-level checks ran before DemandWalk: every demand
/// step t = D_k + m*T_k below `bound` pushed into a vector, sorted and
/// de-duplicated. `coinciding` counts the steps that fell on an instant
/// another task steps at too.
std::vector<Slot> sorted_steps(const TaskSet& tasks, Slot bound,
                               std::size_t* coinciding = nullptr) {
  std::vector<Slot> steps;
  for (const auto& tau : tasks.tasks())
    for (Slot t = tau.deadline; t < bound; t += tau.period) steps.push_back(t);
  std::sort(steps.begin(), steps.end());
  const std::size_t all = steps.size();
  steps.erase(std::unique(steps.begin(), steps.end()), steps.end());
  if (coinciding != nullptr) *coinciding += all - steps.size();
  return steps;
}

Slot dbf_sum(const TaskSet& tasks, Slot t) {
  Slot sum = 0;
  for (const auto& tau : tasks.tasks())
    sum += dbf_sporadic(tau.period, tau.wcet, tau.deadline, t);
  return sum;
}

/// dbf(t) + carry <= sbf(server, t) at each sorted step below `bound`.
AdmissionResult step_scan(const ServerParams& server, const TaskSet& tasks,
                          Slot bound, Slot carry) {
  AdmissionResult r;
  r.checked_until = bound;
  for (const Slot t : sorted_steps(tasks, bound)) {
    if (dbf_sum(tasks, t) + carry > sbf_server(server, t)) {
      r.violation_t = t;
      return r;
    }
  }
  r.schedulable = true;
  return r;
}

/// Theorem 4's check bound, widened by `carry`, as the scan sized it.
Slot scan_bound(const ServerParams& server, const TaskSet& tasks,
                double cprime, Slot carry) {
  Slot max_laxity = 0;
  for (const auto& tau : tasks.tasks())
    max_laxity = std::max(max_laxity, tau.period - tau.deadline);
  const double num = static_cast<double>(max_laxity) +
                     2.0 * static_cast<double>(server.pi) -
                     static_cast<double>(server.theta) - 1.0 +
                     static_cast<double>(carry);
  return static_cast<Slot>(std::ceil(num / cprime)) + 1;
}

/// min_slack as the scan computed it: each task's steps in turn, with the
/// whole set's dbf summed at each.
SlotDelta scan_min_slack(const ServerParams& server, const TaskSet& tasks) {
  Slot bound = 4 * tasks.hyperperiod(Slot{1} << 22).value() + 1;
  if (const auto cprime = local_slack(server, tasks))
    bound = scan_bound(server, tasks, *cprime, 0);
  for (const auto& tau : tasks.tasks())
    bound = std::max(bound, tau.deadline + 1);
  SlotDelta worst = std::numeric_limits<SlotDelta>::max();
  for (const auto& tau : tasks.tasks())
    for (Slot t = tau.deadline; t < bound; t += tau.period)
      worst = std::min(worst, static_cast<SlotDelta>(sbf_server(server, t)) -
                                  static_cast<SlotDelta>(dbf_sum(tasks, t)));
  return worst;
}

/// One random L-level question: a server with Theta <= Pi, 1-8 tasks with
/// D <= T, an explicit Theorem 3 bound (0 for the lcm bound) and a
/// transition carry-over. Periods divide 120, so steps of different tasks
/// often coincide. A quarter of the servers sit just above the set's
/// utilization, so c' is small but positive; their Theta is raised until
/// the Theorem 4 bound keeps the scan's vector small.
struct VmCase {
  ServerParams server;
  TaskSet tasks;
  Slot t_max = 0;
  Slot carry = 0;
};

VmCase random_vm_case(Rng& rng) {
  static constexpr Slot kPeriods[] = {4, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120};
  VmCase c;
  const std::size_t n = 1 + rng.index(8);
  double steps_per_slot = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    workload::IoTaskSpec s;
    s.id = TaskId{static_cast<std::uint32_t>(i)};
    s.vm = VmId{0};
    s.device = DeviceId{0};
    s.name = std::string("w").append(std::to_string(i));
    s.period = kPeriods[rng.index(std::size(kPeriods))];
    s.deadline =
        rng.bernoulli(0.5) ? s.period : 1 + rng.uniform_int(0, s.period - 1);
    s.wcet = 1 + rng.uniform_int(0, std::max<Slot>(1, s.deadline / 4) - 1);
    s.payload_bytes = 8;
    c.tasks.add(s);
    steps_per_slot += 1.0 / static_cast<double>(s.period);
  }
  if (rng.bernoulli(0.25)) {
    const Slot pi = 50 + rng.uniform_int(0, 150);
    Slot theta = std::min<Slot>(
        pi, static_cast<Slot>(c.tasks.utilization() * static_cast<double>(pi)) +
                1);
    for (; theta < pi; ++theta) {
      const auto cprime = local_slack({pi, theta}, c.tasks);
      if (!cprime ||
          static_cast<double>(scan_bound({pi, theta}, c.tasks, *cprime, 0)) *
                  steps_per_slot <
              20000.0)
        break;
    }
    c.server = {pi, theta};
  } else {
    const Slot pi = 2 + rng.uniform_int(0, 28);
    c.server = {pi, 1 + rng.uniform_int(0, pi - 1)};
  }
  if (!rng.bernoulli(0.25)) c.t_max = 1 + rng.uniform_int(0, 360);
  c.carry = rng.uniform_int(0, 2 * c.server.theta);
  return c;
}

TEST(DemandWalk, VisitsEachStepOnceAscendingWithItsDemand) {
  Rng rng(4242);
  std::size_t coinciding = 0;
  for (int i = 0; i < 400; ++i) {
    const VmCase c = random_vm_case(rng);
    const Slot bound = c.t_max == 0 ? 361 : c.t_max;
    const auto want = sorted_steps(c.tasks, bound, &coinciding);
    DemandWalk walk(c.tasks, bound, c.carry);
    std::size_t k = 0;
    for (; walk.next(); ++k) {
      ASSERT_LT(k, want.size()) << "walk passed the bound " << bound;
      ASSERT_EQ(walk.t(), want[k]);
      ASSERT_EQ(walk.dbf(), dbf_sum(c.tasks, walk.t()) + c.carry);
    }
    EXPECT_EQ(k, want.size());
  }
  EXPECT_GE(coinciding, 100u);
}

TEST(DemandWalk, CursorStopsAtNeverSlot) {
  // The next step of either task lies past 2^64 - 1; neither cursor may
  // wrap around to an early instant.
  constexpr Slot kHalf = Slot{1} << 63;
  TaskSet ts;
  workload::IoTaskSpec s;
  s.vm = VmId{0};
  s.device = DeviceId{0};
  s.payload_bytes = 8;
  s.id = TaskId{0};
  s.name = "a";
  s.period = kHalf;
  s.deadline = kHalf - 1;  // next step would be exactly 2^64 - 1
  s.wcet = 1;
  ts.add(s);
  s.id = TaskId{1};
  s.name = "b";
  s.period = kHalf + 1;
  s.deadline = kHalf;  // next step would be 2^64 + 1
  s.wcet = 2;
  ts.add(s);
  DemandWalk walk(ts, kNeverSlot);
  ASSERT_TRUE(walk.next());
  EXPECT_EQ(walk.t(), kHalf - 1);
  EXPECT_EQ(walk.dbf(), 1u);
  ASSERT_TRUE(walk.next());
  EXPECT_EQ(walk.t(), kHalf);
  EXPECT_EQ(walk.dbf(), 3u);
  EXPECT_FALSE(walk.next());
}

TEST(LLevelWalk, MatchesSortedStepScan) {
  // Whole results of Theorem 3 (explicit and lcm bounds), Theorem 4, the
  // transition check and min_slack against the step scan.
  Rng rng(777);
  std::size_t coinciding = 0;
  std::size_t small_slack = 0;
  std::size_t verdicts[2] = {0, 0};
  for (int i = 0; i < 400; ++i) {
    const VmCase c = random_vm_case(rng);
    const auto& g = c.server;
    SCOPED_TRACE("case " + std::to_string(i) + ": Pi=" + std::to_string(g.pi) +
                 " Theta=" + std::to_string(g.theta));

    Slot t_max = c.t_max;
    if (t_max == 0) {
      Slot l = g.pi;
      for (const auto& tau : c.tasks.tasks())
        l = workload::checked_lcm(l, tau.period, Slot{1} << 26);
      t_max = l + 1;
    }
    sorted_steps(c.tasks, t_max, &coinciding);
    expect_same_result(theorem3_exhaustive(g, c.tasks, c.t_max),
                       step_scan(g, c.tasks, t_max, 0), "Theorem 3");

    AdmissionResult t4;
    AdmissionResult transition;
    if (const auto cprime = local_slack(g, c.tasks)) {
      if (*cprime < 0.01) ++small_slack;
      t4 = step_scan(g, c.tasks, scan_bound(g, c.tasks, *cprime, 0), 0);
      transition = step_scan(g, c.tasks,
                             scan_bound(g, c.tasks, *cprime, c.carry), c.carry);
    }
    ++verdicts[t4.schedulable ? 1 : 0];
    expect_same_result(theorem4_check(g, c.tasks), t4, "Theorem 4");
    expect_same_result(mcs_transition_check(g, c.tasks, c.carry), transition,
                       "transition");

    const auto slack = min_slack(g, c.tasks);
    ASSERT_TRUE(slack.ok()) << slack.status().message();
    EXPECT_EQ(*slack, scan_min_slack(g, c.tasks));
  }
  EXPECT_GE(coinciding, 100u);
  EXPECT_GE(small_slack, 20u);
  EXPECT_GE(verdicts[0], 50u);
  EXPECT_GE(verdicts[1], 50u);
}

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
  const Slot h = ts.hyperperiod().value();
  cfg.horizon = 40 * h < 400000 ? 4 * h : 100000;
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
