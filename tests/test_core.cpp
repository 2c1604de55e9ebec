// Unit tests for the I/O-GUARD hypervisor micro-architecture: priority
// queue, I/O pools / L-Sched, G-Sched budgets, P-channel and the assembled
// virtualization manager.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
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

TEST(HwPriorityQueue, HandleReuseAfterRemove) {
  HwPriorityQueue q(2);
  auto a = q.insert(make_job(0, 0, 10, 1)).value();
  q.remove(a);
  auto b = q.insert(make_job(1, 0, 20, 1));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.live_handles().size(), 1u);
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

/// The candidate mask a VirtManager keeps: bit i set iff shadow i is valid.
std::uint64_t candidates(const std::vector<ShadowRegister>& shadows) {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < shadows.size(); ++i)
    if (shadows[i].valid) mask |= std::uint64_t{1} << i;
  return mask;
}

TEST(GSched, BudgetsEnforcedWithSlackReclamation) {
  // One VM, Pi = 4, Theta = 2: two budgeted grants per period; the other
  // two slots (which would otherwise idle) arrive as slack grants.
  GSched g({{4, 2}});
  std::vector<ShadowRegister> shadows(1);
  shadows[0].valid = true;
  shadows[0].absolute_deadline = 1000;

  int grants = 0;
  for (Slot t = 0; t < 4; ++t)
    if (g.pick(t, shadows, candidates(shadows))) ++grants;
  EXPECT_EQ(grants, 4);
  EXPECT_EQ(g.slack_granted(0), 2u);  // only 2 consumed budget
  EXPECT_EQ(g.budget(0), 0u);
  // Next period replenishes the budget.
  (void)g.pick(4, shadows, candidates(shadows));
  EXPECT_EQ(g.budget(0), 1u);
}

TEST(GSched, SlackGoesToEarliestDeadlineAcrossVms) {
  // VM0 exhausts its budget; VM1 has none pending. Further slots flow to
  // VM0 as slack instead of idling (work-conserving).
  GSched g({{8, 1}, {8, 1}});
  std::vector<ShadowRegister> shadows(2);
  shadows[0].valid = true;
  shadows[0].absolute_deadline = 100;
  const std::uint64_t c = candidates(shadows);
  EXPECT_EQ(g.pick(0, shadows, c).value(), 0u);  // budgeted
  EXPECT_EQ(g.pick(1, shadows, c).value(), 0u);  // slack
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
  EXPECT_EQ(g.pick(0, shadows, candidates(shadows)).value(), 1u);
}

TEST(GSched, JobEdfPolicyPicksEarliestJob) {
  GSched g({{10, 5}, {4, 2}}, GschedPolicy::kJobEdf);
  std::vector<ShadowRegister> shadows(2);
  shadows[0].valid = true;
  shadows[0].absolute_deadline = 5;
  shadows[1].valid = true;
  shadows[1].absolute_deadline = 500;
  EXPECT_EQ(g.pick(0, shadows, candidates(shadows)).value(), 0u);
}

TEST(GSched, ExhaustedBudgetFallsBackToOtherVm) {
  GSched g({{4, 1}, {4, 3}}, GschedPolicy::kJobEdf);
  std::vector<ShadowRegister> shadows(2);
  shadows[0].valid = true;
  shadows[0].absolute_deadline = 10;  // most urgent
  shadows[1].valid = true;
  shadows[1].absolute_deadline = 20;
  const std::uint64_t c = candidates(shadows);
  EXPECT_EQ(g.pick(0, shadows, c).value(), 0u);  // grant 1: vm0 urgent
  EXPECT_EQ(g.pick(1, shadows, c).value(), 1u);  // vm0 budget gone, vm1 budgeted
  EXPECT_EQ(g.budget(0), 0u);
  EXPECT_EQ(g.slack_granted(1), 0u);
}

TEST(GSched, NoBudgetPolicyIgnoresServers) {
  GSched g({{4, 0}, {4, 0}}, GschedPolicy::kGlobalEdfNoBudget);
  std::vector<ShadowRegister> shadows(2);
  shadows[0].valid = true;
  shadows[0].absolute_deadline = 10;
  for (Slot t = 0; t < 10; ++t)
    EXPECT_EQ(g.pick(t, shadows, candidates(shadows)).value(), 0u);
}

TEST(GSched, IdleWhenNoShadowValid) {
  GSched g({{4, 2}});
  std::vector<ShadowRegister> shadows(1);
  EXPECT_FALSE(g.pick(0, shadows, candidates(shadows)).has_value());
  EXPECT_EQ(g.budget(0), 2u);  // nothing consumed
}

/// G-Sched as it was before the candidate mask and the kept boundary: each
/// pick catches up every server's periods and scans every shadow. The
/// oracle for GSched.
class LinearGSched {
 public:
  LinearGSched(std::vector<sched::ServerParams> servers, GschedPolicy policy)
      : servers_(std::move(servers)), state_(servers_.size()),
        policy_(policy) {
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      state_[i].budget = servers_[i].theta;
      state_[i].next_replenish = servers_[i].pi;
    }
  }

  void set_server(std::size_t i, const sched::ServerParams& params) {
    const Slot old_theta = servers_[i].theta;
    if (params.theta > old_theta)
      state_[i].budget += params.theta - old_theta;
    else
      state_[i].budget = std::min(state_[i].budget, params.theta);
    servers_[i] = params;
  }

  std::optional<std::size_t> pick(Slot now,
                                  const std::vector<ShadowRegister>& shadows) {
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      while (now >= state_[i].next_replenish) {
        state_[i].budget = servers_[i].theta;
        state_[i].next_replenish += servers_[i].pi;
      }
    }
    auto key = [&](std::size_t i) {
      const Slot server_deadline = state_[i].next_replenish;
      const Slot job_deadline = shadows[i].absolute_deadline;
      switch (policy_) {
        case GschedPolicy::kServerEdf:
          return std::tuple(server_deadline, job_deadline,
                            static_cast<Slot>(i));
        case GschedPolicy::kJobEdf:
          return std::tuple(job_deadline, server_deadline,
                            static_cast<Slot>(i));
        case GschedPolicy::kGlobalEdfNoBudget:
          return std::tuple(job_deadline, Slot{0}, static_cast<Slot>(i));
      }
      return std::tuple(kNeverSlot, kNeverSlot, static_cast<Slot>(i));
    };
    std::optional<std::size_t> best;
    std::tuple<Slot, Slot, Slot> best_key{};
    for (std::size_t i = 0; i < shadows.size(); ++i) {
      if (!shadows[i].valid) continue;
      if (policy_ != GschedPolicy::kGlobalEdfNoBudget &&
          state_[i].budget == 0)
        continue;
      const auto k = key(i);
      if (!best || k < best_key) {
        best = i;
        best_key = k;
      }
    }
    if (best) {
      if (policy_ != GschedPolicy::kGlobalEdfNoBudget) --state_[*best].budget;
      ++state_[*best].granted;
      return best;
    }
    Slot best_deadline = kNeverSlot;
    for (std::size_t i = 0; i < shadows.size(); ++i) {
      if (!shadows[i].valid) continue;
      if (!best || shadows[i].absolute_deadline < best_deadline) {
        best = i;
        best_deadline = shadows[i].absolute_deadline;
      }
    }
    if (best) {
      ++state_[*best].granted;
      ++state_[*best].slack_granted;
    }
    return best;
  }

  struct ServerState {
    Slot budget = 0;
    Slot next_replenish = 0;
    Slot granted = 0;
    Slot slack_granted = 0;
  };
  [[nodiscard]] const ServerState& state(std::size_t i) const {
    return state_[i];
  }

 private:
  std::vector<sched::ServerParams> servers_;
  std::vector<ServerState> state_;
  GschedPolicy policy_;
};

TEST(GSched, MatchesTheLinearSchedulerOverJumpsAndModeSwitches) {
  // Random servers and shadows under all three policies; the slot advances
  // by one, or jumps across several periods as the wake calendar does, and
  // servers are inflated (a LO->HI switch) and restored mid-period.
  const GschedPolicy policies[] = {GschedPolicy::kServerEdf,
                                   GschedPolicy::kJobEdf,
                                   GschedPolicy::kGlobalEdfNoBudget};
  std::size_t jumps = 0, switches = 0, slack = 0;
  for (const GschedPolicy policy : policies) {
    for (std::uint64_t round = 0; round < 60; ++round) {
      Rng rng(0x65c4ed + round);
      const std::size_t n = 1 + rng.index(round % 10 == 0 ? 64 : 8);
      std::vector<sched::ServerParams> lo;
      Slot max_pi = 1;
      for (std::size_t i = 0; i < n; ++i) {
        const Slot pi = 1 + rng.uniform_int(0, 40);
        lo.push_back({pi, rng.uniform_int(0, pi)});
        max_pi = std::max(max_pi, pi);
      }
      GSched g(lo, policy);
      LinearGSched oracle(lo, policy);
      std::vector<ShadowRegister> shadows(n);
      Slot now = 0;
      for (int step = 0; step < 600; ++step) {
        for (auto& sh : shadows) {
          if (rng.bernoulli(0.3)) {
            sh.valid = rng.bernoulli(0.6);
            // Few distinct deadlines, so keys tie across VMs.
            sh.absolute_deadline = now + rng.uniform_int(0, 6) * 10;
          }
        }
        if (rng.bernoulli(0.05)) {
          const std::size_t i = rng.index(n);
          sched::ServerParams p = lo[i];
          if (rng.bernoulli(0.5))
            p.theta = p.theta + rng.uniform_int(0, p.pi - p.theta);
          g.set_server(i, p);
          oracle.set_server(i, p);
          ++switches;
        }
        SCOPED_TRACE("round " + std::to_string(round) + " slot " +
                     std::to_string(now));
        const auto got = g.pick(now, shadows, candidates(shadows));
        const auto want = oracle.pick(now, shadows);
        ASSERT_EQ(got, want);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(g.budget(i), oracle.state(i).budget) << "VM " << i;
          ASSERT_EQ(g.granted(i), oracle.state(i).granted) << "VM " << i;
          ASSERT_EQ(g.slack_granted(i), oracle.state(i).slack_granted)
              << "VM " << i;
          ASSERT_EQ(g.next_replenish(i), oracle.state(i).next_replenish)
              << "VM " << i;
        }
        if (rng.bernoulli(0.1)) {
          now += 2 + rng.uniform_int(0, 4 * max_pi);
          ++jumps;
        } else {
          ++now;
        }
      }
      for (std::size_t i = 0; i < n; ++i) slack += g.slack_granted(i);
    }
  }
  EXPECT_GT(jumps, 5000u);
  EXPECT_GT(switches, 2000u);
  EXPECT_GT(slack, 1000u);
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
  std::vector<std::vector<std::uint32_t>> tables = {
      {kFree, kFree, kFree, kFree, kFree, kFree, kFree},  // all free
      {0},                                                // one slot
      {kFree},
      {0, 0, 1, 0, 1},                                    // fully reserved
      {kFree, kFree, 0, kFree, kFree, kFree, kFree, kFree, 0},  // wraps
  };
  // Random tables up to H = 4000: sparse, dense, and a few bursts between
  // long free stretches, so the wake hint's short look along the table and
  // its binary search both answer, on either side of the wrap.
  Rng table_rng(0x7ab1e);
  for (int k = 0; k < 24; ++k) {
    const Slot hp = 1 + table_rng.uniform_int(0, 3999);
    std::vector<std::uint32_t> slots(hp, kFree);
    const auto task = [&] {
      return static_cast<std::uint32_t>(table_rng.uniform_int(0, 3));
    };
    switch (k % 3) {
      case 0: {  // sparse
        const double p = 0.002 + 0.05 * table_rng.uniform();
        for (auto& s : slots)
          if (table_rng.bernoulli(p)) s = task();
        break;
      }
      case 1: {  // dense
        const double p = 0.6 + 0.35 * table_rng.uniform();
        for (auto& s : slots)
          if (table_rng.bernoulli(p)) s = task();
        break;
      }
      default: {  // bursts
        const auto bursts = table_rng.uniform_int(1, 5);
        for (std::uint64_t b = 0; b < bursts; ++b) {
          const Slot start = table_rng.uniform_int(0, hp - 1);
          const Slot len = table_rng.uniform_int(1, 30);
          const std::uint32_t id = task();
          for (Slot s = start; s < std::min(hp, start + len); ++s)
            slots[s] = id;
        }
      }
    }
    tables.push_back(std::move(slots));
  }
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
  return VirtManager(iodev::DeviceSpec{"spi0"},
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
  VirtManager vm(iodev::DeviceSpec{"spi0"}, predef,
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

TEST(VirtManager, RefusesMoreVmsThanItsMasksHold) {
  EXPECT_NO_THROW((void)make_manager(64));
  EXPECT_THROW((void)make_manager(65), CheckFailure);
}

TEST(VirtManager, TracerAttachedMidRunSeesEveryExposedShadow) {
  // Both VMs hold long jobs, so no queue changes after the first slots. A
  // tracer attached then must still see each exposed head latched at the
  // next free slot: attaching it marks every shadow dirty.
  auto vm = make_manager(2, GschedPolicy::kGlobalEdfNoBudget);
  ASSERT_TRUE(vm.submit(make_job(0, 0, 1000, 50, 0), 0));
  ASSERT_TRUE(vm.submit(make_job(1, 0, 1000, 50, 1), 0));
  std::vector<iodev::Completion> done;
  for (Slot s = 0; s < 5; ++s) vm.tick_slot(s, done);
  EventTrace trace(64);
  vm.set_tracer(&trace, DeviceId{0});
  vm.tick_slot(5, done);
  std::set<std::uint32_t> exposed;
  for (const TraceEvent& ev : trace.events())
    if (ev.kind == TraceEventKind::kShadowExpose) exposed.insert(ev.job.value);
  EXPECT_EQ(exposed, (std::set<std::uint32_t>{0, 1}));
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
