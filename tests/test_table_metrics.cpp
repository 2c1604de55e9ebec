// Tests for the Time Slot Table quality metrics and the placement-policy
// knob.
#include <gtest/gtest.h>

#include "sched/table_metrics.hpp"
#include "workload/generator.hpp"

namespace ioguard {
namespace {

using sched::SlotPlacement;
using sched::TimeSlotTable;

workload::IoTaskSpec predefined(std::uint32_t id, Slot t, Slot c,
                                Slot offset = 0) {
  workload::IoTaskSpec s;
  s.id = TaskId{id};
  s.vm = VmId{0};
  s.device = DeviceId{0};
  s.name = std::string("p").append(std::to_string(id));
  s.kind = workload::TaskKind::kPredefined;
  s.period = t;
  s.wcet = c;
  s.deadline = t;
  s.offset = offset;
  s.payload_bytes = 16;
  return s;
}

TEST(TableMetrics, HandBuiltTable) {
  // H = 8: slots 0,1 busy; 4 busy; rest free (circularly: busy runs {0,1},
  // {4}; free runs {2,3}, {5,6,7}).
  TimeSlotTable t(8);
  t.reserve(0, TaskId{1});
  t.reserve(1, TaskId{1});
  t.reserve(4, TaskId{1});
  const auto m = sched::analyze_table(t);
  EXPECT_EQ(m.hyperperiod, 8u);
  EXPECT_EQ(m.free_slots, 5u);
  EXPECT_EQ(m.longest_busy_run, 2u);
  EXPECT_EQ(m.longest_free_gap, 3u);
  EXPECT_EQ(m.busy_runs, 2u);
  // Worst window of length 3 (slots 0,1 busy + one more) still has a free
  // slot? Window [7,0,1] has one free (7). Window [0,1,2]: one free. So
  // sbf(3) >= 1, but sbf(2) = 0 because [0,1] is all busy.
  EXPECT_EQ(m.first_supply_at, 3u);
}

TEST(TableMetrics, CircularBusyRunDetected) {
  // Busy run wrapping the boundary: slots 6,7,0 reserved.
  TimeSlotTable t(8);
  t.reserve(6, TaskId{1});
  t.reserve(7, TaskId{1});
  t.reserve(0, TaskId{1});
  const auto m = sched::analyze_table(t);
  EXPECT_EQ(m.longest_busy_run, 3u);
  EXPECT_EQ(m.busy_runs, 1u);
}

TEST(TableMetrics, AllFreeAndAllBusyEdges) {
  TimeSlotTable free_table(6);
  const auto mf = sched::analyze_table(free_table);
  EXPECT_EQ(mf.longest_busy_run, 0u);
  EXPECT_EQ(mf.longest_free_gap, 6u);
  EXPECT_EQ(mf.first_supply_at, 1u);
  EXPECT_DOUBLE_EQ(mf.bandwidth, 1.0);
}

TEST(TableMetrics, SpreadPlacementBeatsEdfPackOnEveryAxis) {
  // The design choice DESIGN.md calls out: same pre-defined demand, two
  // placements -- spread leaves shorter busy runs and more admissible
  // R-channel bandwidth.
  workload::TaskSet ts;
  ts.add(predefined(0, 100, 20));
  ts.add(predefined(1, 200, 30));
  ts.add(predefined(2, 400, 60));

  const auto spread =
      sched::build_time_slot_table(ts, Slot{1} << 24, SlotPlacement::kSpread);
  const auto packed =
      sched::build_time_slot_table(ts, Slot{1} << 24, SlotPlacement::kEdfPack);
  ASSERT_TRUE(spread.feasible);
  ASSERT_TRUE(packed.feasible);

  const auto ms = sched::analyze_table(spread.table);
  const auto mp = sched::analyze_table(packed.table);
  EXPECT_EQ(ms.free_slots, mp.free_slots) << "same demand => same F";
  EXPECT_LT(ms.longest_busy_run, mp.longest_busy_run);
  EXPECT_LT(ms.first_supply_at, mp.first_supply_at);
  EXPECT_GT(ms.supply_efficiency_100, mp.supply_efficiency_100);

  const double bw_spread = sched::admissible_bandwidth(spread.table);
  const double bw_packed = sched::admissible_bandwidth(packed.table);
  EXPECT_GT(bw_spread, bw_packed);
}

TEST(TableMetrics, AdmissibleBandwidthBelowFreeBandwidth) {
  workload::TaskSet ts;
  ts.add(predefined(0, 50, 15));
  const auto build = sched::build_time_slot_table(ts);
  ASSERT_TRUE(build.feasible);
  const auto m = sched::analyze_table(build.table);
  const double admissible = sched::admissible_bandwidth(build.table);
  EXPECT_GT(admissible, 0.0);
  EXPECT_LE(admissible, m.bandwidth + 1e-9);
}

}  // namespace
}  // namespace ioguard
