// Additional cross-cutting property tests:
//  * slot-table placement conformance: every pre-defined job receives
//    exactly C slots inside its release window, under both policies;
//  * admission monotonicity: more demand never helps, more budget never
//    hurts (Theorem 4), and freeing a table slot never lowers sbf;
//  * workload builder conservation: per-device utilization is preserved by
//    preload marking and snapping within tolerance.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "sched/admission.hpp"
#include "sched/slot_table.hpp"
#include "workload/generator.hpp"

namespace ioguard {
namespace {

using sched::ServerParams;
using sched::SlotPlacement;
using workload::TaskSet;

TaskSet random_predefined(Rng& rng, std::size_t n) {
  TaskSet ts;
  const Slot menu[] = {10, 20, 40, 80};
  for (std::size_t i = 0; i < n; ++i) {
    workload::IoTaskSpec s;
    s.id = TaskId{static_cast<std::uint32_t>(i)};
    s.vm = VmId{0};
    s.device = DeviceId{0};
    s.name = "p" + std::to_string(i);
    s.kind = workload::TaskKind::kPredefined;
    s.period = menu[rng.index(4)];
    s.deadline = s.period;
    s.wcet = 1 + rng.uniform_int(0, s.period / 4);
    s.offset = rng.uniform_int(0, s.period - 1);
    s.payload_bytes = 8;
    ts.add(s);
  }
  return ts;
}

class PlacementConformance
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PlacementConformance, EveryJobGetsItsSlotsInsideItsWindow) {
  Rng rng(12000 + std::get<0>(GetParam()));
  const auto policy = std::get<1>(GetParam()) == 0 ? SlotPlacement::kSpread
                                                   : SlotPlacement::kEdfPack;
  const auto ts = random_predefined(rng, 1 + rng.index(4));
  if (ts.utilization() > 0.9) GTEST_SKIP();

  const auto build = sched::build_time_slot_table(ts, Slot{1} << 24, policy);
  if (!build.feasible) GTEST_SKIP() << build.failure;
  const Slot h = build.table.hyperperiod();

  // Count each task's reserved slots inside each of its job windows.
  for (const auto& t : ts.tasks()) {
    for (Slot r = t.offset; r < h; r += t.period) {
      Slot got = 0;
      for (Slot s = r; s < r + t.deadline; ++s)
        if (build.table.occupant(s % h) == t.id) ++got;
      // Window-local count can exceed C only if another job of the same
      // task overlaps modulo H -- excluded because D <= T. It must be at
      // least C for the job to be schedulable at its reserved instants.
      EXPECT_GE(got, t.wcet) << t.name << " window at " << r;
    }
    // Global conservation: exactly C * H/T slots per hyper-period.
    Slot total = 0;
    for (Slot s = 0; s < h; ++s)
      if (build.table.occupant(s) == t.id) ++total;
    EXPECT_EQ(total, t.wcet * (h / t.period)) << t.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, PlacementConformance,
                         ::testing::Combine(::testing::Range(0, 15),
                                            ::testing::Values(0, 1)));

class MonotonicityProperty : public ::testing::TestWithParam<int> {};

TEST_P(MonotonicityProperty, MoreDemandNeverHelpsMoreBudgetNeverHurts) {
  Rng rng(13000 + GetParam());
  const Slot pi = 5 + rng.uniform_int(0, 20);
  const Slot theta = 1 + rng.uniform_int(0, pi - 1);

  TaskSet base;
  for (std::size_t i = 0; i < 2; ++i) {
    workload::IoTaskSpec s;
    s.id = TaskId{static_cast<std::uint32_t>(i)};
    s.vm = VmId{0};
    s.device = DeviceId{0};
    s.name = "t" + std::to_string(i);
    s.period = 50 + rng.uniform_int(0, 200);
    s.deadline = s.period - rng.uniform_int(0, s.period / 5);
    s.wcet = 1 + rng.uniform_int(0, s.deadline / 6);
    s.payload_bytes = 8;
    base.add(s);
  }

  const bool before =
      static_cast<bool>(sched::theorem4_check({pi, theta}, base));

  // Add one more task: schedulable(after) => schedulable(before).
  TaskSet more = base;
  {
    workload::IoTaskSpec extra;
    extra.id = TaskId{99};
    extra.vm = VmId{0};
    extra.device = DeviceId{0};
    extra.name = "extra";
    extra.period = 100;
    extra.deadline = 90;
    extra.wcet = 1 + rng.uniform_int(0, 10);
    extra.payload_bytes = 8;
    more.add(extra);
  }
  const bool after =
      static_cast<bool>(sched::theorem4_check({pi, theta}, more));
  if (after) {
    EXPECT_TRUE(before);
  }

  // Raise Theta: schedulable(before) must be preserved.
  if (before && theta < pi) {
    EXPECT_TRUE(sched::theorem4_check({pi, theta + 1}, base));
  }
}

INSTANTIATE_TEST_SUITE_P(Random, MonotonicityProperty,
                         ::testing::Range(0, 40));

class SbfMonotoneInSupply : public ::testing::TestWithParam<int> {};

TEST_P(SbfMonotoneInSupply, FreeingASlotNeverLowersSbf) {
  Rng rng(14000 + GetParam());
  const Slot h = 8 + rng.uniform_int(0, 24);
  sched::TimeSlotTable dense(h);
  for (Slot s = 0; s < h; ++s)
    if (rng.bernoulli(0.5)) dense.reserve(s, TaskId{0});
  if (dense.free_slots() == h) dense.reserve(0, TaskId{0});

  // Pick one reserved slot and free it in a copy.
  Slot victim = 0;
  while (dense.is_free(victim)) ++victim;
  sched::TimeSlotTable sparse = dense;
  sparse.release(victim);

  sched::TableSupply dense_supply(dense);
  sched::TableSupply sparse_supply(sparse);
  for (Slot t = 0; t <= 3 * h; ++t)
    EXPECT_GE(sparse_supply.sbf(t), dense_supply.sbf(t)) << "t=" << t;
}

INSTANTIATE_TEST_SUITE_P(Random, SbfMonotoneInSupply,
                         ::testing::Range(0, 20));

class BuilderConservation : public ::testing::TestWithParam<int> {};

TEST_P(BuilderConservation, PreloadMarkingPreservesDeviceUtilization) {
  Rng rng(15000 + GetParam());
  workload::CaseStudyConfig cfg;
  cfg.num_vms = 4 + 4 * rng.index(2);
  cfg.target_utilization = rng.uniform(0.4, 1.0);
  cfg.preload_fraction = rng.uniform(0.0, 1.0);
  cfg.seed = 15000 + static_cast<std::uint64_t>(GetParam());
  const auto wl = workload::build_case_study(cfg);

  for (std::size_t d = 0; d < workload::kCaseStudyDeviceCount; ++d) {
    const DeviceId dev{static_cast<std::uint32_t>(d)};
    const double u = wl.tasks.filter_device(dev).utilization();
    // Snapping rescales WCETs, so the device total stays near the target.
    EXPECT_NEAR(u, cfg.target_utilization, 0.10)
        << "device " << d << " preload " << cfg.preload_fraction;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, BuilderConservation,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace ioguard
