// Unit tests for src/sched: Time Slot Table construction, the supply/demand
// bound functions of Sec. IV (Eqs. 1-3, 8-9), Theorems 1-4, server design
// and the reference EDF/FIFO simulators.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "analysis/artifact_builder.hpp"
#include "analysis/verify_supply.hpp"
#include "common/check.hpp"
#include "core/hypervisor.hpp"
#include "golden.hpp"
#include "sched/admission.hpp"
#include "sched_oracles.hpp"
#include "sched/edf_ref.hpp"
#include "sched/mcs_admission.hpp"
#include "sched/sbf.hpp"
#include "sched/sensitivity.hpp"
#include "sched/server_design.hpp"
#include "sched/slot_table.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"

namespace ioguard::sched {
namespace {

using workload::IoTaskSpec;
using workload::TaskKind;
using workload::TaskSet;

IoTaskSpec predefined_task(std::uint32_t id, Slot t, Slot c, Slot d,
                           Slot offset = 0) {
  IoTaskSpec s;
  s.id = TaskId{id};
  s.vm = VmId{0};
  s.device = DeviceId{0};
  s.name = std::string("p").append(std::to_string(id));
  s.kind = TaskKind::kPredefined;
  s.period = t;
  s.wcet = c;
  s.deadline = d;
  s.offset = offset;
  s.payload_bytes = 16;
  return s;
}

IoTaskSpec runtime_task(std::uint32_t id, Slot t, Slot c, Slot d) {
  IoTaskSpec s = predefined_task(id, t, c, d);
  s.kind = TaskKind::kRuntime;
  s.name = std::string("r").append(std::to_string(id));
  return s;
}

// ---------------------------------------------------------------- slot table

TEST(SlotTable, EmptyPredefinedGivesAllFreeTable) {
  const auto build = build_time_slot_table(TaskSet{});
  ASSERT_TRUE(build.feasible);
  EXPECT_EQ(build.table.hyperperiod(), 1u);
  EXPECT_EQ(build.table.free_slots(), 1u);
}

TEST(SlotTable, SingleTaskOccupiesExactlyItsDemand) {
  TaskSet ts;
  ts.add(predefined_task(0, 10, 3, 10));
  const auto build = build_time_slot_table(ts);
  ASSERT_TRUE(build.feasible) << build.failure;
  EXPECT_EQ(build.table.hyperperiod(), 10u);
  EXPECT_EQ(build.table.free_slots(), 7u);
  // All three reserved slots belong to the task and sit inside its window;
  // spread placement distributes them rather than packing the front.
  Slot reserved = 0;
  for (Slot s = 0; s < 10; ++s)
    if (auto occ = build.table.occupant(s)) {
      EXPECT_EQ(*occ, TaskId{0});
      ++reserved;
    }
  EXPECT_EQ(reserved, 3u);
  EXPECT_FALSE(build.table.occupant(0).has_value() &&
               build.table.occupant(1).has_value() &&
               build.table.occupant(2).has_value())
      << "slots should be spread, not packed";
}

TEST(SlotTable, EveryJobGetsItsSlotsWithinItsWindow) {
  TaskSet ts;
  ts.add(predefined_task(0, 10, 2, 10));
  ts.add(predefined_task(1, 20, 5, 15));
  ts.add(predefined_task(2, 40, 8, 40, 3));
  const auto build = build_time_slot_table(ts);
  ASSERT_TRUE(build.feasible) << build.failure;
  const Slot h = build.table.hyperperiod();
  EXPECT_EQ(h, 40u);

  // Count each task's slots per hyper-period: must equal C * (H / T).
  std::map<std::uint32_t, Slot> count;
  for (Slot s = 0; s < h; ++s)
    if (auto occ = build.table.occupant(s)) ++count[occ->value];
  EXPECT_EQ(count[0], 2u * 4);
  EXPECT_EQ(count[1], 5u * 2);
  EXPECT_EQ(count[2], 8u * 1);
}

TEST(SlotTable, OverUtilizedIsInfeasible) {
  TaskSet ts;
  ts.add(predefined_task(0, 10, 6, 10));
  ts.add(predefined_task(1, 10, 6, 10));
  const auto build = build_time_slot_table(ts);
  EXPECT_FALSE(build.feasible);
  EXPECT_FALSE(build.failure.empty());
}

TEST(SlotTable, TightDeadlinesCanBeInfeasibleEvenUnderUnitUtilization) {
  TaskSet ts;
  // Two tasks both demanding their full WCET inside the same tight window.
  ts.add(predefined_task(0, 10, 3, 3));
  ts.add(predefined_task(1, 10, 3, 3));
  const auto build = build_time_slot_table(ts);
  EXPECT_FALSE(build.feasible);
}

TEST(SlotTable, ReserveReleaseRoundTrip) {
  TimeSlotTable t(5);
  EXPECT_EQ(t.free_slots(), 5u);
  t.reserve(2, TaskId{9});
  EXPECT_EQ(t.free_slots(), 4u);
  EXPECT_EQ(t.occupant(2).value(), TaskId{9});
  EXPECT_THROW(t.reserve(2, TaskId{1}), CheckFailure);
  t.release(2);
  EXPECT_EQ(t.free_slots(), 5u);
  EXPECT_THROW(t.release(2), CheckFailure);
  EXPECT_TRUE(t.is_free_abs(7));  // 7 mod 5 = 2
}

// ------------------------------------------------------------------- sbf/dbf

TEST(TableSupply, HandComputedExample) {
  // H = 4, slots: busy, free, busy, free  =>  F = 2.
  TimeSlotTable t(4);
  t.reserve(0, TaskId{0});
  t.reserve(2, TaskId{0});
  TableSupply supply(t);
  EXPECT_EQ(supply.hyperperiod(), 4u);
  EXPECT_EQ(supply.free_per_period(), 2u);
  EXPECT_EQ(supply.sbf(0), 0u);
  EXPECT_EQ(supply.sbf(1), 0u);  // a window of one busy slot exists
  EXPECT_EQ(supply.sbf(2), 1u);
  EXPECT_EQ(supply.sbf(3), 1u);
  EXPECT_EQ(supply.sbf(4), 2u);   // Eq. (2): full period
  EXPECT_EQ(supply.sbf(5), 2u);   // sbf(1) + F
  EXPECT_EQ(supply.sbf(9), 4u);   // sbf(1) + 2F
  EXPECT_DOUBLE_EQ(supply.bandwidth(), 0.5);
}

TEST(DbfServer, Equation3) {
  ServerParams g{10, 3};
  EXPECT_EQ(dbf_server(g, 0), 0u);
  EXPECT_EQ(dbf_server(g, 9), 0u);
  EXPECT_EQ(dbf_server(g, 10), 3u);
  EXPECT_EQ(dbf_server(g, 25), 6u);
  EXPECT_EQ(dbf_server(g, 30), 9u);
}

TEST(SbfServer, Equation8HandValues) {
  ServerParams g{5, 2};  // gap = 3
  EXPECT_EQ(sbf_server(g, 0), 0u);
  EXPECT_EQ(sbf_server(g, 3), 0u);
  EXPECT_EQ(sbf_server(g, 6), 0u);   // 2(Pi-Theta) blackout
  EXPECT_EQ(sbf_server(g, 7), 1u);
  EXPECT_EQ(sbf_server(g, 8), 2u);
  EXPECT_EQ(sbf_server(g, 13), 4u);  // t' = 10: two full budgets
}

TEST(SbfServer, FullBandwidthServerSuppliesEverything) {
  ServerParams g{7, 7};
  for (Slot t = 0; t <= 30; ++t) EXPECT_EQ(sbf_server(g, t), t);
}

TEST(DbfSporadic, Equation9) {
  // (T, C, D) = (10, 2, 7)
  EXPECT_EQ(dbf_sporadic(10, 2, 7, 6), 0u);
  EXPECT_EQ(dbf_sporadic(10, 2, 7, 7), 2u);
  EXPECT_EQ(dbf_sporadic(10, 2, 7, 16), 2u);
  EXPECT_EQ(dbf_sporadic(10, 2, 7, 17), 4u);
  EXPECT_EQ(dbf_sporadic(10, 2, 7, 27), 6u);
}

// ------------------------------------------------------------- theorems 1-4

TEST(Theorem1, AcceptsFeasibleServersOnHandTable) {
  TimeSlotTable t(4);
  t.reserve(0, TaskId{0});
  t.reserve(2, TaskId{0});
  TableSupply supply(t);  // F/H = 0.5
  // One server demanding 1 slot every 4: bandwidth 0.25 <= 0.5.
  EXPECT_TRUE(theorem1_exhaustive(supply, {{4, 1}}));
  // Demanding more than the free bandwidth must fail.
  EXPECT_FALSE(theorem1_exhaustive(supply, {{4, 3}}));
}

TEST(Theorem1, ReportsViolationInstant) {
  TimeSlotTable t(4);
  t.reserve(0, TaskId{0});
  t.reserve(1, TaskId{0});
  t.reserve(2, TaskId{0});
  TableSupply supply(t);  // F = 1
  const auto r = theorem1_exhaustive(supply, {{2, 1}});  // needs 0.5, has 0.25
  EXPECT_FALSE(r.schedulable);
  ASSERT_TRUE(r.violation_t.has_value());
  EXPECT_EQ(dbf_server({2, 1}, *r.violation_t) > supply.sbf(*r.violation_t),
            true);
}

TEST(Theorem2, AgreesWithTheorem1WhenSlackPositive) {
  TimeSlotTable t(10);
  for (Slot s = 0; s < 4; ++s) t.reserve(s, TaskId{0});  // F = 6
  TableSupply supply(t);
  const std::vector<ServerParams> ok = {{5, 1}, {10, 2}};   // bw 0.4 < 0.6
  const std::vector<ServerParams> bad = {{5, 2}, {10, 3}};  // bw 0.7 > 0.6
  EXPECT_EQ(static_cast<bool>(theorem2_check(supply, ok)),
            static_cast<bool>(theorem1_exhaustive(supply, ok)));
  EXPECT_FALSE(theorem2_check(supply, bad));
  EXPECT_FALSE(theorem1_exhaustive(supply, bad));
}

TEST(Theorem2, RejectsZeroSlackByStatedLimitation) {
  TimeSlotTable t(2);
  t.reserve(0, TaskId{0});  // F/H = 0.5
  TableSupply supply(t);
  // Exactly F/H = sum Theta/Pi: Theorem 2's precondition c > 0 fails.
  EXPECT_FALSE(theorem2_check(supply, {{2, 1}}));
}

// Exactly-zero slack whose double rounds to +1.1e-16: the theorems reject
// it, and no check bound is sized from the rounding error (a ~1e17-slot
// bound exhausted memory building its step points).

TEST(ZeroSlack, Theorem2RejectsExactlyZeroGlobalSlack) {
  TimeSlotTable t(1000);
  for (Slot s = 0; s < 1000; s += 4) t.reserve(s, TaskId{0});  // F/H = 3/4
  const TableSupply supply(t);
  // 1/10 + 2/25 + 1/20 + 21/50 + 1/10 = 3/4.
  const std::vector<ServerParams> servers = {
      {10, 1}, {25, 2}, {20, 1}, {50, 21}, {10, 1}};
  EXPECT_FALSE(global_slack(supply, servers).has_value());
  const auto r = theorem2_check(supply, servers);
  EXPECT_FALSE(r.schedulable);
  EXPECT_EQ(r.checked_until, 0u);
  EXPECT_FALSE(r.violation_t.has_value());
  // Theorem 1 over its lcm bound still answers exactly.
  EXPECT_TRUE(theorem1_exhaustive(supply, servers));
  // The sensitivity and verifier sites take their no-slack paths.
  const auto slack = global_min_slack(supply, servers);
  ASSERT_TRUE(slack.ok()) << slack.status().message();
  EXPECT_GE(*slack, 0);
  analysis::Report report;
  analysis::verify_global_admission(supply, servers, {}, report);
  EXPECT_TRUE(report.has(analysis::DiagCode::kSupZeroSlack));
  // One slot less of demand leaves positive slack.
  auto lighter = servers;
  lighter[3].theta = 20;
  EXPECT_TRUE(global_slack(supply, lighter).has_value());
  EXPECT_TRUE(theorem2_check(supply, lighter));
}

TEST(ZeroSlack, Theorem4RejectsExactlyZeroLocalSlack) {
  // 17/102 + 82/141 + 1/564 = 3/4 = Theta/Pi.
  TaskSet ts;
  ts.add(runtime_task(1, 102, 17, 102));
  ts.add(runtime_task(2, 141, 82, 141));
  ts.add(runtime_task(3, 564, 1, 564));
  const ServerParams g{20, 15};
  EXPECT_FALSE(local_slack(g, ts).has_value());
  const auto r = theorem4_check(g, ts);
  EXPECT_FALSE(r.schedulable);
  EXPECT_EQ(r.checked_until, 0u);
  EXPECT_FALSE(r.violation_t.has_value());
  EXPECT_FALSE(mcs_transition_check(g, ts, 0));
  // min_slack measures over the over-utilized window instead.
  EXPECT_TRUE(min_slack(g, ts).ok());
  // Synthesis steps past Theta = 15 at Pi = 20 to a budget with slack.
  const auto server = min_theta_for_pi(20, ts);
  ASSERT_TRUE(server.ok()) << server.status().message();
  EXPECT_GT(server->theta, 15u);
  EXPECT_TRUE(theorem4_check(*server, ts));
  EXPECT_TRUE(local_slack({20, 16}, ts).has_value());
}

// A check bound past 2^64 - 1 slots: casting its double to a Slot is
// undefined (x86-64 GCC yields 0, a bound of 1 that checks nothing). Such a
// slack counts as not positive, as a sum too wide for 128 bits does.

TEST(BoundOverflow, Theorem2RejectsABoundBeyondSlot) {
  // 64 busy slots in a row: F/H = 63/64 and sbf(64) = 0. The servers leave
  // c = 63/64 - 1/64 - (31/32 - 2^-53) = 2^-53 exactly, so the bound
  // F*((H-1)/H)/c is about 3.6e19.
  TimeSlotTable t(4096);
  for (Slot s = 0; s < 64; ++s) t.reserve(s, TaskId{0});
  const TableSupply supply(t);
  const std::vector<ServerParams> servers = {
      {64, 1}, {Slot{1} << 53, 31 * (Slot{1} << 48) - 1}};
  ASSERT_TRUE(global_slack(supply, servers).has_value());
  EXPECT_FALSE(global_check_bound(supply, servers).has_value());
  const auto r = theorem2_check(supply, servers);
  EXPECT_FALSE(r.schedulable);
  EXPECT_EQ(r.checked_until, 0u);
  EXPECT_FALSE(r.violation_t.has_value());
  // The first server's demand at t = 64 already exceeds sbf(64).
  EXPECT_EQ(theorem1_exhaustive(supply, servers, 65).violation_t, Slot{64});
}

TEST(BoundOverflow, Theorem4RejectsABoundBeyondSlot) {
  // ioguard_admitd's regression line: c' ~ 1.1e-12 and max(T - D) ~ 3.5e13
  // size a bound near 3e25. Task 2 alone misses at t = 1, where sbf = 0.
  TaskSet ts;
  ts.add(runtime_task(1, Slot{1} << 40, 1098412116147, Slot{1} << 40));
  ts.add(runtime_task(2, Slot{1} << 45, 1, 1));
  const ServerParams g{1000, 999};
  ASSERT_TRUE(local_slack(g, ts).has_value());
  EXPECT_FALSE(local_check_bound(g, ts).has_value());
  const auto r = theorem4_check(g, ts);
  EXPECT_FALSE(r.schedulable);
  EXPECT_EQ(r.checked_until, 0u);
  EXPECT_FALSE(r.violation_t.has_value());
  EXPECT_FALSE(mcs_transition_check(g, ts, 0));
  EXPECT_EQ(theorem3_exhaustive(g, ts, 2).violation_t, Slot{1});

  // Short periods, huge Pi: c' = 2^-52 against a blackout of ~2^52 slots.
  // min_slack measures over its over-utilized window, four hyper-periods.
  TaskSet fast;
  fast.add(runtime_task(1, 2, 1, 2));
  const ServerParams wide{Slot{1} << 52, (Slot{1} << 51) + 1};
  ASSERT_TRUE(local_slack(wide, fast).has_value());
  EXPECT_FALSE(theorem4_check(wide, fast));
  const auto slack = min_slack(wide, fast);
  ASSERT_TRUE(slack.ok()) << slack.status().message();
  EXPECT_EQ(*slack, -4);
}

TEST(Theorem3, SimpleVmTaskSet) {
  ServerParams g{5, 3};
  TaskSet ts;
  ts.add(runtime_task(0, 20, 3, 20));
  ts.add(runtime_task(1, 50, 10, 50));
  EXPECT_TRUE(theorem3_exhaustive(g, ts));

  TaskSet heavy;
  heavy.add(runtime_task(0, 10, 7, 10));  // U = 0.7 > 3/5
  EXPECT_FALSE(theorem3_exhaustive(g, heavy));
}

TEST(Theorem4, MatchesTheorem3OnConstrainedDeadlines) {
  ServerParams g{10, 6};
  TaskSet ts;
  ts.add(runtime_task(0, 40, 4, 30));
  ts.add(runtime_task(1, 100, 12, 80));
  EXPECT_EQ(static_cast<bool>(theorem4_check(g, ts)),
            static_cast<bool>(theorem3_exhaustive(g, ts)));
}

TEST(Theorem4, EmptyTaskSetTriviallySchedulable) {
  EXPECT_TRUE(theorem4_check({10, 1}, TaskSet{}));
}

// --------------------------------------------------------------- server design

TEST(ServerDesign, MinThetaIsMinimal) {
  TaskSet ts;
  ts.add(runtime_task(0, 100, 10, 100));
  ts.add(runtime_task(1, 200, 30, 200));  // U = 0.25
  const auto server = min_theta_for_pi(20, ts);
  ASSERT_TRUE(server.ok());
  EXPECT_TRUE(theorem4_check(*server, ts));
  if (server->theta > 1) {
    EXPECT_FALSE(theorem4_check({server->pi, server->theta - 1}, ts))
        << "theta not minimal";
  }
  EXPECT_GE(server->bandwidth(), ts.utilization());
}

TEST(ServerDesign, InfeasibleWhenUtilizationExceedsOne) {
  TaskSet ts;
  ts.add(runtime_task(0, 10, 9, 10));
  ts.add(runtime_task(1, 10, 5, 10));
  const auto per_pi = min_theta_for_pi(10, ts);
  ASSERT_FALSE(per_pi.ok());
  EXPECT_EQ(per_pi.status().code(), StatusCode::kFailedPrecondition);
  const auto synthesized = synthesize_server(ts);
  ASSERT_FALSE(synthesized.ok());
  EXPECT_EQ(synthesized.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServerDesign, SystemDesignAdmitsLightLoad) {
  TimeSlotTable table(20);
  for (Slot s = 0; s < 4; ++s) table.reserve(s, TaskId{99});
  TableSupply supply(table);  // 0.8 free bandwidth

  std::vector<TaskSet> vms(2);
  vms[0].add(runtime_task(0, 100, 8, 100));
  vms[1].add(runtime_task(1, 200, 10, 200));
  const auto design = design_system(supply, vms);
  EXPECT_TRUE(design.feasible) << design.reason;
  ASSERT_EQ(design.servers.size(), 2u);
  for (const auto& s : design.servers) EXPECT_GT(s.theta, 0u);
}

TEST(ServerDesign, EmptyVmGetsZeroBudget) {
  TimeSlotTable table(10);
  TableSupply supply(table);
  std::vector<TaskSet> vms(2);
  vms[1].add(runtime_task(0, 50, 5, 50));
  const auto design = design_system(supply, vms);
  EXPECT_TRUE(design.feasible);
  EXPECT_EQ(design.servers[0].theta, 0u);
  EXPECT_GT(design.servers[1].theta, 0u);
}

// ---------------------------------------------------------- design goldens

void write_verdict(std::ostream& os, const AdmissionResult& r) {
  os << r.schedulable << ' ' << r.checked_until << ' ';
  if (r.violation_t) {
    os << *r.violation_t;
  } else {
    os << '-';
  }
}

TEST(SchedGolden, CaseStudyDesignVerdicts) {
  // Every device of the case study as core::Hypervisor designs it: the
  // sigma* table and the per-VM task sets charged with the dispatch
  // overhead. Pins each design_system field and the exhaustive Theorem 1
  // verdict at its lcm bound, so a faster G-level check must reproduce
  // every verdict, check bound and violation instant.
  std::ostringstream os;
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    for (const std::size_t vms : {4, 8}) {
      for (const double util : {0.4, 0.6, 0.7, 0.9}) {
        workload::CaseStudyConfig cfg;
        cfg.seed = seed;
        cfg.num_vms = vms;
        cfg.target_utilization = util;
        cfg.preload_fraction = 0.7;
        const auto a = analysis::build_experiment_artifacts(cfg);
        for (std::size_t d = 0; d < a.tables.size(); ++d) {
          const TableSupply supply(a.tables[d]);
          const auto design = design_system(supply, a.vm_tasks[d]);
          os << "seed " << seed << " vms " << vms << " util " << util
             << " dev " << d << " H " << supply.hyperperiod() << " F "
             << supply.free_per_period() << "\nfeasible " << design.feasible
             << " servers";
          std::vector<ServerParams> active;
          for (const auto& g : design.servers) {
            os << ' ' << g.pi << '/' << g.theta;
            if (g.theta > 0) active.push_back(g);
          }
          os << "\nglobal ";
          write_verdict(os, design.global);
          os << "\nper_vm";
          for (const auto& r : design.per_vm) {
            os << " | ";
            write_verdict(os, r);
          }
          os << "\nreason";
          if (!design.reason.empty()) os << ' ' << design.reason;
          os << "\ntheorem1 ";
          write_verdict(os, theorem1_exhaustive(supply, active));
          os << '\n';
        }
      }
    }
  }
  ioguard::testing::expect_matches_golden("design_golden.txt", os.str());
}

TEST(SchedGolden, LLevelVerdicts) {
  // Every L-level question server design asks, per device, VM and Pi of
  // the default menu: the synthesized Theta (or why there is none),
  // Theorem 4 at Theta and at Theta - 1, and min_slack at Theta. The grid
  // includes test_system's base_trial configuration (4 VMs, utilization
  // 0.5, preload 0.4, trial seed 3), whose Theta - 1 probes have a check
  // bound near 1e10 slots and a violation at their second demand step.
  struct Point {
    std::uint64_t seed;
    std::size_t vms;
    double util;
    double preload;
  };
  std::vector<Point> grid;
  for (const std::uint64_t seed : {1, 2, 3, 4})
    for (const std::size_t vms : {4, 8})
      for (const double util : {0.4, 0.9}) grid.push_back({seed, vms, util, 0.7});
  grid.push_back({3 * 1000003ULL + 17, 4, 0.5, 0.4});

  std::ostringstream os;
  for (const auto& p : grid) {
    workload::CaseStudyConfig cfg;
    cfg.seed = p.seed;
    cfg.num_vms = p.vms;
    cfg.target_utilization = p.util;
    cfg.preload_fraction = p.preload;
    const auto wl = workload::build_case_study(cfg);
    for (std::size_t d = 0; d < workload::kCaseStudyDeviceCount; ++d) {
      const auto plan = core::plan_device(
          wl, DeviceId{static_cast<std::uint32_t>(d)}, p.vms, 1);
      for (std::size_t v = 0; v < plan.vm_tasks.size(); ++v) {
        const TaskSet& tasks = plan.vm_tasks[v];
        if (tasks.empty()) continue;
        for (const Slot pi : ServerDesignConfig{}.pi_menu) {
          os << "seed " << p.seed << " vms " << p.vms << " util " << p.util
             << " preload " << p.preload << " dev " << d << " vm " << v
             << " pi " << pi;
          const auto server = min_theta_for_pi(pi, tasks);
          if (!server.ok()) {
            os << " status " << to_string(server.status().code()) << '\n';
            continue;
          }
          os << " theta " << server->theta << " | ";
          write_verdict(os, theorem4_check(*server, tasks));
          os << " | ";
          if (server->theta > 1) {
            write_verdict(os, theorem4_check({pi, server->theta - 1}, tasks));
          } else {
            os << '-';
          }
          const auto slack = min_slack(*server, tasks);
          os << " | slack ";
          if (slack.ok()) {
            os << *slack;
          } else {
            os << to_string(slack.status().code());
          }
          os << '\n';
        }
      }
    }
  }
  ioguard::testing::expect_matches_golden("l_level_golden.txt", os.str());
}

// ------------------------------------------------------------ reference sims

TEST(EdfRef, MeetsDeadlinesAtFullUtilizationImplicitDeadlines) {
  TaskSet ts;
  ts.add(runtime_task(0, 4, 2, 4));
  ts.add(runtime_task(1, 8, 4, 8));  // U = 1.0
  workload::ArrivalConfig cfg;
  cfg.horizon = 800;
  cfg.jitter_frac = 0.0;
  cfg.exec_frac_lo = cfg.exec_frac_hi = 1.0;
  const auto trace = workload::generate_trace(ts, cfg);
  const auto r = simulate_edf(trace, full_supply(), cfg.horizon);
  EXPECT_EQ(r.misses, 0u);
}

TEST(EdfRef, FifoSuffersPriorityInversionWhereEdfDoesNot) {
  // A long job released just before a short-deadline job: FIFO blocks the
  // short job (the paper's hardware-level dilemma); EDF preempts.
  std::vector<workload::Job> trace(2);
  trace[0] = {JobId{0}, TaskId{0}, VmId{0}, DeviceId{0}, 0, 100, 50, 0};
  trace[1] = {JobId{1}, TaskId{1}, VmId{0}, DeviceId{0}, 1, 11, 5, 0};
  const auto fifo = simulate_fifo(trace, full_supply(), 200);
  const auto edf = simulate_edf(trace, full_supply(), 200);
  EXPECT_EQ(fifo.misses, 1u);
  EXPECT_EQ(edf.misses, 0u);
  EXPECT_EQ(edf.jobs[1].completion, 6u);  // ran in slots 1..5
}

TEST(EdfRef, UnfinishedJobsCountAsMisses) {
  std::vector<workload::Job> trace(1);
  trace[0] = {JobId{0}, TaskId{0}, VmId{0}, DeviceId{0}, 0, 10, 5, 0};
  const auto r = simulate_edf(trace, [](Slot) { return false; }, 20);
  EXPECT_EQ(r.misses, 1u);
  EXPECT_EQ(r.busy_slots, 0u);
}

TEST(EdfRef, RespectsSupplyFunction) {
  std::vector<workload::Job> trace(1);
  trace[0] = {JobId{0}, TaskId{0}, VmId{0}, DeviceId{0}, 0, 20, 4, 0};
  // Supply only every other slot: 4 units of work finish at slot 7 (slots
  // 0,2,4,6).
  const auto r = simulate_edf(
      trace, [](Slot t) { return t % 2 == 0; }, 40);
  EXPECT_EQ(r.misses, 0u);
  EXPECT_EQ(r.jobs[0].completion, 7u);
}

}  // namespace
}  // namespace ioguard::sched
