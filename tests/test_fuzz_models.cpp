// Fuzz/property tests against independent reference models:
//  * HwPriorityQueue vs a std::multiset oracle under random operations,
//  * mesh flit conservation under random traffic,
//  * G-Sched budget guarantee over random server sets,
//  * P-channel conformance to its Time Slot Table,
//  * energy and decision-cost model sanity.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "core/gsched.hpp"
#include "core/pchannel.hpp"
#include "core/priority_queue.hpp"
#include "hwmodel/decision_cost.hpp"
#include "hwmodel/energy.hpp"
#include "noc/mesh.hpp"
#include "sched/slot_table.hpp"

namespace ioguard {
namespace {

// ------------------------------------------- priority queue vs multiset

class PqFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PqFuzz, MatchesMultisetOracle) {
  Rng rng(4000 + GetParam());
  core::HwPriorityQueue q(16);
  // Oracle: (deadline, release, job id) -> handle.
  using Key = std::tuple<Slot, Slot, std::uint32_t>;
  std::map<Key, core::EntryHandle> oracle;
  std::uint32_t next_id = 0;

  for (int step = 0; step < 3000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.5 && !q.full()) {
      workload::Job j;
      j.id = JobId{next_id++};
      j.task = TaskId{j.id.value};
      j.vm = VmId{0};
      j.device = DeviceId{0};
      j.release = rng.uniform_int(0, 100);
      j.absolute_deadline = j.release + rng.uniform_int(1, 1000);
      j.wcet = 1 + rng.uniform_int(0, 5);
      const auto h = q.insert(j);
      ASSERT_TRUE(h.has_value());
      oracle.emplace(Key{j.absolute_deadline, j.release, j.id.value}, *h);
    } else if (!oracle.empty()) {
      // The queue's earliest must match the oracle's first key.
      const auto earliest = q.peek_earliest();
      ASSERT_TRUE(earliest.has_value());
      EXPECT_EQ(*earliest, oracle.begin()->second);
      if (rng.bernoulli(0.7)) {
        q.remove(*earliest);
        oracle.erase(oracle.begin());
      } else {
        // Random-access removal of a random live entry.
        auto it = oracle.begin();
        std::advance(it, static_cast<long>(rng.index(oracle.size())));
        q.remove(it->second);
        oracle.erase(it);
      }
    }
    ASSERT_EQ(q.size(), oracle.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Streams, PqFuzz, ::testing::Range(0, 10));

// ---------------------------------------------------- mesh conservation

class MeshFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MeshFuzz, EveryInjectedPacketDeliveredExactlyOnce) {
  Rng rng(6000 + GetParam());
  noc::MeshConfig cfg;
  cfg.width = 2 + static_cast<int>(rng.index(4));
  cfg.height = 2 + static_cast<int>(rng.index(4));
  cfg.fifo_depth = 2 + rng.index(8);
  noc::Mesh mesh(cfg);

  std::map<std::uint64_t, int> seen;
  for (std::uint32_t n = 0; n < mesh.node_count(); ++n)
    mesh.set_delivery_handler(NodeId{n}, [&](const noc::Packet& p, Cycle) {
      ++seen[p.tag];
    });

  std::uint64_t tag = 0;
  Cycle now = 0;
  const int packets = 100;
  std::map<std::uint64_t, std::uint32_t> expected_dst;
  for (int i = 0; i < packets; ++i) {
    noc::Packet p;
    p.src = NodeId{static_cast<std::uint32_t>(rng.index(mesh.node_count()))};
    p.dst = NodeId{static_cast<std::uint32_t>(rng.index(mesh.node_count()))};
    p.payload_bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 300));
    p.tag = ++tag;
    expected_dst[p.tag] = p.dst.value;
    mesh.send(p, now);
    for (Cycle c = 0; c < rng.uniform_int(0, 30); ++c) mesh.tick(now++);
  }
  for (int c = 0; c < 100000 && !mesh.idle(); ++c) mesh.tick(now++);

  ASSERT_TRUE(mesh.idle());
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(packets));
  for (const auto& [t, count] : seen) EXPECT_EQ(count, 1) << "tag " << t;
}

INSTANTIATE_TEST_SUITE_P(Streams, MeshFuzz, ::testing::Range(0, 10));

// -------------------------------------------------- G-Sched budget law

class GschedProperty : public ::testing::TestWithParam<int> {};

TEST_P(GschedProperty, BudgetedGrantsReachThetaPerPeriodWhenBacklogged) {
  Rng rng(7000 + GetParam());
  const std::size_t n = 1 + rng.index(5);
  std::vector<sched::ServerParams> servers;
  Slot total_theta = 0, common_pi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Slot pi = 10;  // common period isolates the per-period guarantee
    const Slot theta = 1 + rng.uniform_int(0, 1);
    servers.push_back({pi, theta});
    total_theta += theta;
    common_pi = pi;
  }
  if (total_theta > common_pi) GTEST_SKIP() << "over-committed";

  core::GSched g(servers);
  std::vector<core::ShadowRegister> shadows(n);
  for (std::size_t i = 0; i < n; ++i) {
    shadows[i].valid = true;  // permanently backlogged
    shadows[i].absolute_deadline = 1000 + i;
  }
  const Slot periods = 50;
  const std::uint64_t all = (std::uint64_t{1} << n) - 1;
  for (Slot t = 0; t < periods * common_pi; ++t)
    (void)g.pick(t, shadows, all);

  for (std::size_t i = 0; i < n; ++i) {
    const Slot budgeted = g.granted(i) - g.slack_granted(i);
    EXPECT_GE(budgeted, (periods - 1) * servers[i].theta)
        << "VM " << i << " Theta=" << servers[i].theta;
  }
}

INSTANTIATE_TEST_SUITE_P(Streams, GschedProperty, ::testing::Range(0, 20));

// ------------------------------------------------ P-channel conformance

TEST(PchannelConformance, ExecutesExactlyTheTableSlots) {
  workload::TaskSet ts;
  workload::IoTaskSpec a;
  a.id = TaskId{0};
  a.vm = VmId{0};
  a.device = DeviceId{0};
  a.name = "a";
  a.kind = workload::TaskKind::kPredefined;
  a.period = 20;
  a.wcet = 4;
  a.deadline = 20;
  a.payload_bytes = 8;
  ts.add(a);
  workload::IoTaskSpec b = a;
  b.id = TaskId{1};
  b.name = "b";
  b.period = 40;
  b.wcet = 10;
  b.deadline = 40;
  ts.add(b);

  const auto build = sched::build_time_slot_table(ts);
  ASSERT_TRUE(build.feasible);
  core::PChannel pch(ts, build.table);

  const Slot horizon = 10 * build.table.hyperperiod();
  Slot executed = 0;
  for (Slot s = 0; s < horizon; ++s) {
    bool used = false;
    const auto done = pch.execute_slot(s, used);
    const bool reserved = !build.table.is_free_abs(s);
    EXPECT_EQ(used || done.has_value(), reserved) << "slot " << s;
    if (used || done) ++executed;
  }
  // Every reserved slot was consumed (no startup transient for offset 0).
  const Slot reserved_per_h =
      build.table.hyperperiod() - build.table.free_slots();
  EXPECT_EQ(executed, 10 * reserved_per_h);
  EXPECT_EQ(pch.wasted_slots(), 0u);
}

// ----------------------------------------------- energy / decision cost

TEST(Energy, SystemOrderingOnCpuSide) {
  const hw::EnergyModel model;
  const std::uint32_t bytes = 256;
  const double legacy = model.op_energy_nj(hw::legacy_path_work(bytes, 8));
  const double rtxen = model.op_energy_nj(hw::rtxen_path_work(bytes, 8));
  const double bv = model.op_energy_nj(hw::bluevisor_path_work(bytes, 8));
  const double iog = model.op_energy_nj(hw::ioguard_path_work(bytes, 8));
  EXPECT_GT(rtxen, legacy);
  EXPECT_GT(legacy, bv);
  EXPECT_GT(bv, iog);
}

TEST(Energy, RtxenGrowsWithVmCount) {
  const hw::EnergyModel model;
  EXPECT_GT(model.op_energy_nj(hw::rtxen_path_work(64, 16)),
            model.op_energy_nj(hw::rtxen_path_work(64, 2)));
  // Hardware systems do not.
  EXPECT_DOUBLE_EQ(model.op_energy_nj(hw::ioguard_path_work(64, 16)),
                   model.op_energy_nj(hw::ioguard_path_work(64, 2)));
}

TEST(DecisionCost, TreeDepthAndCycles) {
  hw::DecisionCostConfig c;
  c.num_vms = 16;
  c.pool_depth = 4;
  EXPECT_EQ(hw::scheduler_tree_depth(c), 2u + 4u);
  EXPECT_GE(hw::scheduler_decision_cycles(c), 1u);
}

TEST(DecisionCost, FitsSlotForEveryEvaluatedConfiguration) {
  for (std::uint32_t vms : {1u, 4u, 16u, 64u, 256u}) {
    for (std::uint32_t depth : {2u, 4u, 16u, 64u}) {
      hw::DecisionCostConfig c;
      c.num_vms = vms;
      c.pool_depth = depth;
      EXPECT_TRUE(hw::decision_fits_slot(c))
          << vms << " VMs, pool depth " << depth;
    }
  }
}

TEST(DecisionCost, MonotoneInScale) {
  hw::DecisionCostConfig small{4, 4, 2, 4};
  hw::DecisionCostConfig big{1024, 64, 2, 4};
  EXPECT_LE(hw::scheduler_decision_cycles(small),
            hw::scheduler_decision_cycles(big));
}

}  // namespace
}  // namespace ioguard
