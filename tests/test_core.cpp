// Unit tests for the I/O-GUARD hypervisor micro-architecture: priority
// queue, I/O pools / L-Sched, G-Sched budgets, P-channel and the assembled
// virtualization manager.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/gsched.hpp"
#include "core/hypervisor.hpp"
#include "core/io_pool.hpp"
#include "core/pchannel.hpp"
#include "core/priority_queue.hpp"
#include "core/translator.hpp"
#include "core/vmanager.hpp"

namespace ioguard::core {
namespace {

workload::Job make_job(std::uint32_t id, Slot release, Slot deadline,
                       Slot wcet, std::uint32_t vm = 0,
                       std::uint32_t dev = 0) {
  workload::Job j;
  j.id = JobId{id};
  j.task = TaskId{id};
  j.vm = VmId{vm};
  j.device = DeviceId{dev};
  j.release = release;
  j.absolute_deadline = deadline;
  j.wcet = wcet;
  j.payload_bytes = 32;
  return j;
}

// ------------------------------------------------------------ priority queue

TEST(HwPriorityQueue, EarliestDeadlineWins) {
  HwPriorityQueue q(8);
  auto h1 = q.insert(make_job(0, 0, 100, 1));
  auto h2 = q.insert(make_job(1, 0, 50, 1));
  auto h3 = q.insert(make_job(2, 0, 75, 1));
  ASSERT_TRUE(h1 && h2 && h3);
  EXPECT_EQ(q.peek_earliest().value(), *h2);
  q.remove(*h2);
  EXPECT_EQ(q.peek_earliest().value(), *h3);
}

TEST(HwPriorityQueue, TiesBreakByReleaseThenJobId) {
  HwPriorityQueue q(4);
  auto a = q.insert(make_job(5, 10, 100, 1));
  auto b = q.insert(make_job(3, 10, 100, 1));  // same deadline+release, lower id
  ASSERT_TRUE(a && b);
  EXPECT_EQ(q.peek_earliest().value(), *b);
}

TEST(HwPriorityQueue, CapacityBackPressure) {
  HwPriorityQueue q(2);
  EXPECT_TRUE(q.insert(make_job(0, 0, 10, 1)).has_value());
  EXPECT_TRUE(q.insert(make_job(1, 0, 10, 1)).has_value());
  EXPECT_FALSE(q.insert(make_job(2, 0, 10, 1)).has_value());
  EXPECT_TRUE(q.full());
}

TEST(HwPriorityQueue, RandomAccessUpdateAndConsume) {
  HwPriorityQueue q(4);
  auto h = q.insert(make_job(0, 0, 40, 3)).value();
  EXPECT_EQ(q.params(h).remaining, 3u);
  EXPECT_FALSE(q.consume_one_slot(h));
  EXPECT_FALSE(q.consume_one_slot(h));
  EXPECT_EQ(q.params(h).remaining, 1u);
  EXPECT_TRUE(q.consume_one_slot(h));  // reached zero
  q.remove(h);
  EXPECT_TRUE(q.empty());
  EXPECT_THROW((void)q.params(h), CheckFailure);
}

TEST(HwPriorityQueue, SetDeadlineReprioritizes) {
  HwPriorityQueue q(4);
  auto a = q.insert(make_job(0, 0, 100, 1)).value();
  auto b = q.insert(make_job(1, 0, 200, 1)).value();
  EXPECT_EQ(q.peek_earliest().value(), a);
  q.set_deadline(b, 50);  // random-access parameter write
  EXPECT_EQ(q.peek_earliest().value(), b);
}

TEST(HwPriorityQueue, HandleReuseAfterRemove) {
  HwPriorityQueue q(2);
  auto a = q.insert(make_job(0, 0, 10, 1)).value();
  q.remove(a);
  auto b = q.insert(make_job(1, 0, 20, 1));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.live_handles().size(), 1u);
}

TEST(HwPriorityQueue, ComparatorDepthIsLog2) {
  EXPECT_EQ(HwPriorityQueue(1).comparator_depth(), 0u);
  EXPECT_EQ(HwPriorityQueue(2).comparator_depth(), 1u);
  EXPECT_EQ(HwPriorityQueue(8).comparator_depth(), 3u);
  EXPECT_EQ(HwPriorityQueue(9).comparator_depth(), 4u);
}

// ------------------------------------------------------------------- I/O pool

TEST(IoPool, ShadowTracksEarliestDeadline) {
  IoPool pool(VmId{0}, 4);
  EXPECT_FALSE(pool.shadow().valid);
  ASSERT_TRUE(pool.submit(make_job(0, 0, 100, 2)));
  ASSERT_TRUE(pool.submit(make_job(1, 0, 60, 2)));
  pool.refresh_shadow();
  EXPECT_TRUE(pool.shadow().valid);
  EXPECT_EQ(pool.shadow().absolute_deadline, 60u);
}

TEST(IoPool, ExecuteShadowConsumesAndCompletes) {
  IoPool pool(VmId{0}, 4, /*dispatch_overhead_slots=*/0);
  ASSERT_TRUE(pool.submit(make_job(0, 0, 30, 2)));
  pool.refresh_shadow();
  EXPECT_FALSE(pool.execute_shadow_slot().has_value());  // 1 of 2 slots
  pool.refresh_shadow();
  auto done = pool.execute_shadow_slot();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->job, JobId{0});
  EXPECT_FALSE(pool.has_pending());
}

TEST(IoPool, RejectsWrongVmAndCountsDrops) {
  IoPool pool(VmId{1}, 1);
  EXPECT_THROW((void)pool.submit(make_job(0, 0, 10, 1, /*vm=*/0)),
               CheckFailure);
  EXPECT_TRUE(pool.submit(make_job(1, 0, 10, 1, 1)));
  EXPECT_FALSE(pool.submit(make_job(2, 0, 10, 1, 1)));  // full
  EXPECT_EQ(pool.dropped(), 1u);
}

// -------------------------------------------------------------------- G-Sched

TEST(GSched, BudgetsEnforcedWithSlackReclamation) {
  // One VM, Pi = 4, Theta = 2: two budgeted grants per period; the other
  // two slots (which would otherwise idle) arrive as slack grants.
  GSched g({{4, 2}});
  std::vector<ShadowRegister> shadows(1);
  shadows[0].valid = true;
  shadows[0].absolute_deadline = 1000;

  int grants = 0;
  for (Slot t = 0; t < 4; ++t)
    if (g.pick(t, shadows)) ++grants;
  EXPECT_EQ(grants, 4);
  EXPECT_EQ(g.slack_granted(0), 2u);  // only 2 consumed budget
  EXPECT_EQ(g.budget(0), 0u);
  // Next period replenishes the budget.
  (void)g.pick(4, shadows);
  EXPECT_EQ(g.budget(0), 1u);
}

TEST(GSched, SlackGoesToEarliestDeadlineAcrossVms) {
  // VM0 exhausts its budget; VM1 has none pending. Further slots flow to
  // VM0 as slack instead of idling (work-conserving).
  GSched g({{8, 1}, {8, 1}});
  std::vector<ShadowRegister> shadows(2);
  shadows[0].valid = true;
  shadows[0].absolute_deadline = 100;
  EXPECT_EQ(g.pick(0, shadows).value(), 0u);  // budgeted
  EXPECT_EQ(g.pick(1, shadows).value(), 0u);  // slack
  EXPECT_EQ(g.slack_granted(0), 1u);
  EXPECT_EQ(g.slack_granted(1), 0u);
}

TEST(GSched, ServerEdfPrefersEarlierReplenishmentDeadline) {
  // VM0: Pi 10 (deadline 10), VM1: Pi 4 (deadline 4): server EDF picks VM1
  // even though VM0's job deadline is earlier.
  GSched g({{10, 5}, {4, 2}}, GschedPolicy::kServerEdf);
  std::vector<ShadowRegister> shadows(2);
  shadows[0].valid = true;
  shadows[0].absolute_deadline = 5;
  shadows[1].valid = true;
  shadows[1].absolute_deadline = 500;
  EXPECT_EQ(g.pick(0, shadows).value(), 1u);
}

TEST(GSched, JobEdfPolicyPicksEarliestJob) {
  GSched g({{10, 5}, {4, 2}}, GschedPolicy::kJobEdf);
  std::vector<ShadowRegister> shadows(2);
  shadows[0].valid = true;
  shadows[0].absolute_deadline = 5;
  shadows[1].valid = true;
  shadows[1].absolute_deadline = 500;
  EXPECT_EQ(g.pick(0, shadows).value(), 0u);
}

TEST(GSched, ExhaustedBudgetFallsBackToOtherVm) {
  GSched g({{4, 1}, {4, 3}}, GschedPolicy::kJobEdf);
  std::vector<ShadowRegister> shadows(2);
  shadows[0].valid = true;
  shadows[0].absolute_deadline = 10;  // most urgent
  shadows[1].valid = true;
  shadows[1].absolute_deadline = 20;
  EXPECT_EQ(g.pick(0, shadows).value(), 0u);  // grant 1: vm0 urgent
  EXPECT_EQ(g.pick(1, shadows).value(), 1u);  // vm0 budget gone, vm1 budgeted
  EXPECT_EQ(g.budget(0), 0u);
  EXPECT_EQ(g.slack_granted(1), 0u);
}

TEST(GSched, NoBudgetPolicyIgnoresServers) {
  GSched g({{4, 0}, {4, 0}}, GschedPolicy::kGlobalEdfNoBudget);
  std::vector<ShadowRegister> shadows(2);
  shadows[0].valid = true;
  shadows[0].absolute_deadline = 10;
  for (Slot t = 0; t < 10; ++t) EXPECT_EQ(g.pick(t, shadows).value(), 0u);
}

TEST(GSched, IdleWhenNoShadowValid) {
  GSched g({{4, 2}});
  std::vector<ShadowRegister> shadows(1);
  EXPECT_FALSE(g.pick(0, shadows).has_value());
  EXPECT_EQ(g.budget(0), 2u);  // nothing consumed
}

// ------------------------------------------------------------------ P-channel

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

TEST(PChannel, ExecutesTableReservedSlotsAndCompletesJobs) {
  workload::TaskSet ts;
  ts.add(predefined(0, 10, 3));
  auto build = sched::build_time_slot_table(ts);
  ASSERT_TRUE(build.feasible);
  PChannel pch(ts, build.table);

  std::vector<iodev::Completion> done;
  for (Slot s = 0; s < 100; ++s) {
    bool used = false;
    if (auto c = pch.execute_slot(s, used)) done.push_back(*c);
  }
  EXPECT_EQ(done.size(), 10u);
  EXPECT_EQ(pch.jobs_completed(), 10u);
  EXPECT_EQ(pch.busy_slots(), 30u);
  for (const auto& c : done) EXPECT_FALSE(c.missed());
}

TEST(PChannel, FreeSlotsReportedFree) {
  workload::TaskSet ts;
  ts.add(predefined(0, 10, 2));
  auto build = sched::build_time_slot_table(ts);
  ASSERT_TRUE(build.feasible);
  PChannel pch(ts, build.table);
  int free_count = 0;
  for (Slot s = 0; s < 10; ++s)
    if (pch.slot_is_free(s)) ++free_count;
  EXPECT_EQ(free_count, 8);
}

/// The table cursor against a brute-force scan of the table: occupancy,
/// slot_is_free and the wake hint must equal what `table.occupant(now % H)`
/// and a forward scan say, over walks that mix +1 steps with the jumps the
/// wake calendar makes (to the next reservation, or anywhere a submission
/// wakes the manager). Each task takes offset 0 and exactly its reserved
/// slots per hyperperiod as WCET, so a jump can only put its jobs behind,
/// and every reserved slot the walk visits executes.
TEST(PChannel, CursorMatchesBruteForceScanOverStepsAndJumps) {
  constexpr std::uint32_t kFree = sched::TimeSlotTable::kFree;
  const std::vector<std::vector<std::uint32_t>> tables = {
      {kFree, kFree, kFree, kFree, kFree, kFree, kFree},  // all free
      {0},                                                // one slot
      {kFree},
      {0, 0, 1, 0, 1},                                    // fully reserved
      {kFree, kFree, 0, kFree, kFree, kFree, kFree, kFree, 0},  // wraps
  };
  for (const auto& slots : tables) {
    const auto table = sched::TimeSlotTable::from_slots(slots);
    const Slot hp = table.hyperperiod();
    std::map<std::uint32_t, Slot> wcet;
    for (const std::uint32_t occupant : slots)
      if (occupant != kFree) ++wcet[occupant];
    workload::TaskSet ts;
    for (const auto& [id, c] : wcet) ts.add(predefined(id, hp, c));
    PChannel pch(ts, table);
    const auto scan = [&](Slot from) {
      for (Slot t = from; t < from + hp; ++t)
        if (table.occupant(t % hp)) return t;
      return kNeverSlot;
    };

    Rng rng(hp);
    Slot now = 0;
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE("H=" + std::to_string(hp) + " now=" + std::to_string(now));
      const auto occupant = table.occupant(now % hp);
      EXPECT_EQ(pch.slot_is_free(now), !occupant.has_value());
      EXPECT_EQ(pch.next_reserved_slot(now), scan(now));
      bool used = false;
      const auto done = pch.execute_slot(now, used);
      EXPECT_EQ(used, occupant.has_value());
      if (done) {
        EXPECT_EQ(done->job.task, *occupant);
      }
      EXPECT_EQ(pch.cursor_phase(), now % hp);
      EXPECT_EQ(pch.slot_is_free(now), !occupant.has_value());
      EXPECT_EQ(pch.next_reserved_slot(now + 1), scan(now + 1));
      switch (rng.uniform_int(0, 3)) {
        case 0: {  // the calendar sleeps until the next reservation
          const Slot wake = pch.next_reserved_slot(now + 1);
          now = wake == kNeverSlot ? now + 1 + hp : wake;
          break;
        }
        case 1:  // a submission wakes the manager anywhere ahead
          now += 2 + rng.uniform_int(0, 3 * hp);
          break;
        default:
          ++now;
      }
    }
  }
}

// ----------------------------------------------------------------- translator

TEST(Translator, NeverExceedsWcetBound) {
  TranslatorConfig cfg;
  cfg.wcet_cycles = 40;
  cfg.best_case_cycles = 12;
  RtTranslator tr(cfg, 5);
  for (int i = 0; i < 10000; ++i) {
    const Cycle c = tr.translate();
    EXPECT_GE(c, 12u);
    EXPECT_LE(c, 40u);
  }
  EXPECT_EQ(tr.translations(), 10000u);
  EXPECT_LE(tr.worst_observed(), tr.wcet());
}

TEST(Translator, RejectsInvertedBounds) {
  TranslatorConfig cfg;
  cfg.wcet_cycles = 5;
  cfg.best_case_cycles = 10;
  EXPECT_THROW(RtTranslator bad(cfg), CheckFailure);
}

// ---------------------------------------------------- virtualization manager

VirtManager make_manager(std::size_t num_vms,
                         GschedPolicy policy = GschedPolicy::kServerEdf) {
  workload::TaskSet empty_predef;
  auto build = sched::build_time_slot_table(empty_predef);
  std::vector<sched::ServerParams> servers(num_vms, {4, 1});
  VManagerConfig cfg;
  cfg.num_vms = num_vms;
  cfg.pool_capacity = 8;
  cfg.policy = policy;
  cfg.dispatch_overhead_slots = 0;  // slot-exact expectations below
  return VirtManager(iodev::device_spec(iodev::DeviceKind::kSpi),
                     empty_predef, build.table, servers, cfg);
}

TEST(VirtManager, RuntimeJobRunsToCompletion) {
  auto vm = make_manager(2);
  ASSERT_TRUE(vm.submit(make_job(0, 0, 50, 3, /*vm=*/1), 0));
  std::vector<iodev::Completion> done;
  for (Slot s = 0; s < 40; ++s) vm.tick_slot(s, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].job.id, JobId{0});
  EXPECT_EQ(done[0].job.vm, VmId{1});
  EXPECT_FALSE(done[0].missed());
  EXPECT_EQ(vm.runtime_jobs_completed(), 1u);
}

TEST(VirtManager, PreemptionBetweenVms) {
  // VM0 submits a long job; VM1 then submits an urgent one. With job-EDF
  // and no budget limits the urgent job overtakes at slot granularity --
  // impossible on a FIFO controller.
  auto vm = make_manager(2, GschedPolicy::kGlobalEdfNoBudget);
  ASSERT_TRUE(vm.submit(make_job(0, 0, 1000, 20, 0), 0));
  std::vector<iodev::Completion> done;
  for (Slot s = 0; s < 5; ++s) vm.tick_slot(s, done);
  ASSERT_TRUE(vm.submit(make_job(1, 5, 15, 3, 1), 5));
  for (Slot s = 5; s < 40; ++s) vm.tick_slot(s, done);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].job.id, JobId{1});  // urgent job finished first
  EXPECT_FALSE(done[0].missed());
  EXPECT_EQ(done[1].job.id, JobId{0});
}

TEST(VirtManager, PChannelHasPriorityOverRChannel) {
  workload::TaskSet predef;
  predef.add(predefined(7, 4, 2));  // slots 0,1 of every 4 reserved
  auto build = sched::build_time_slot_table(predef);
  ASSERT_TRUE(build.feasible);
  std::vector<sched::ServerParams> servers(1, {4, 2});
  VManagerConfig cfg;
  cfg.num_vms = 1;
  cfg.dispatch_overhead_slots = 0;  // slot-exact expectations below
  VirtManager vm(iodev::device_spec(iodev::DeviceKind::kSpi), predef,
                 build.table, servers, cfg);

  ASSERT_TRUE(vm.submit(make_job(0, 0, 100, 4, 0), 0));
  std::vector<iodev::Completion> done;
  for (Slot s = 0; s < 8; ++s) vm.tick_slot(s, done);
  // Runtime job only got the free slots 2,3,6,7.
  ASSERT_GE(done.size(), 1u);
  bool found_runtime = false;
  for (const auto& c : done) {
    if (c.job.task == TaskId{0}) {  // the runtime job (task 7 is pre-defined)
      found_runtime = true;
      // Four slots of work through a half-reserved table: the last needed
      // free slot lies in the second table period (slots 7 or 8 depending
      // on where spread placement put the reservations).
      EXPECT_GE(c.completed_at, 7u);
      EXPECT_LE(c.completed_at, 8u);
    }
  }
  EXPECT_TRUE(found_runtime);
  EXPECT_EQ(vm.pchannel().busy_slots(), 4u);  // slots 0,1,4,5
}

TEST(VirtManager, PoolIsolationUnderOverflow) {
  // VM0 floods its pool; VM1's job still completes on time.
  auto vm = make_manager(2, GschedPolicy::kServerEdf);
  for (std::uint32_t i = 0; i < 50; ++i)
    (void)vm.submit(make_job(i, 0, 100000, 10, 0), 0);
  EXPECT_GT(vm.dropped_jobs(), 0u);
  ASSERT_TRUE(vm.submit(make_job(100, 0, 40, 2, 1), 0));
  std::vector<iodev::Completion> done;
  for (Slot s = 0; s < 40; ++s) vm.tick_slot(s, done);
  bool vm1_on_time = false;
  for (const auto& c : done)
    if (c.job.vm == VmId{1} && !c.missed()) vm1_on_time = true;
  EXPECT_TRUE(vm1_on_time);
}

// ----------------------------------------------------------------- hypervisor

TEST(Hypervisor, BuildsFromCaseStudyWorkloadAndRoutesByDevice) {
  workload::CaseStudyConfig wcfg;
  wcfg.num_vms = 4;
  wcfg.target_utilization = 0.5;
  wcfg.preload_fraction = 0.4;
  const auto wl = workload::build_case_study(wcfg);

  HypervisorConfig hcfg;
  hcfg.num_vms = 4;
  Hypervisor hyp(wl, hcfg);
  EXPECT_EQ(hyp.device_count(), workload::kCaseStudyDeviceCount);
  ASSERT_EQ(hyp.designs().size(), workload::kCaseStudyDeviceCount);
  for (const auto& d : hyp.designs()) {
    EXPECT_TRUE(d.table_feasible) << d.note;
    EXPECT_GT(d.hyperperiod, 0u);
  }

  // Submit one runtime job per device and watch completions route back.
  std::vector<iodev::Completion> done;
  std::uint32_t id = 1000;
  for (std::uint32_t d = 0; d < workload::kCaseStudyDeviceCount; ++d)
    ASSERT_TRUE(hyp.submit(make_job(id++, 0, 5000, 2, 0, d), 0));
  for (Slot s = 0; s < 5000 && done.size() < 4; ++s) hyp.tick_slot(s, done);
  std::set<std::uint32_t> devices_seen;
  for (const auto& c : done)
    if (c.job.id.value >= 1000) devices_seen.insert(c.job.device.value);
  EXPECT_EQ(devices_seen.size(), 4u);
}

TEST(Hypervisor, LightLoadIsFullyAdmitted) {
  workload::CaseStudyConfig wcfg;
  wcfg.num_vms = 4;
  wcfg.target_utilization = 0.45;
  wcfg.preload_fraction = 0.4;
  const auto wl = workload::build_case_study(wcfg);
  HypervisorConfig hcfg;
  hcfg.num_vms = 4;
  Hypervisor hyp(wl, hcfg);
  EXPECT_TRUE(hyp.fully_admitted());
}

}  // namespace
}  // namespace ioguard::core
