// Unit tests for src/workload: task sets, automotive DB, UUniFast,
// case-study builder, arrival traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "workload/arrivals.hpp"
#include "workload/automotive.hpp"
#include "workload/generator.hpp"
#include "workload/task.hpp"

namespace ioguard::workload {
namespace {

IoTaskSpec make_task(std::uint32_t id, Slot t, Slot c, Slot d,
                     std::uint32_t vm = 0, std::uint32_t dev = 0) {
  IoTaskSpec s;
  s.id = TaskId{id};
  s.vm = VmId{vm};
  s.device = DeviceId{dev};
  s.name = "t" + std::to_string(id);
  s.period = t;
  s.wcet = c;
  s.deadline = d;
  s.payload_bytes = 64;
  return s;
}

TEST(TaskSet, RejectsMalformedTasks) {
  TaskSet ts;
  EXPECT_THROW(ts.add(make_task(0, 0, 1, 1)), CheckFailure);   // period 0
  EXPECT_THROW(ts.add(make_task(0, 10, 0, 10)), CheckFailure); // wcet 0
  EXPECT_THROW(ts.add(make_task(0, 10, 5, 12)), CheckFailure); // D > T
  EXPECT_THROW(ts.add(make_task(0, 10, 8, 5)), CheckFailure);  // C > D
}

TEST(TaskSet, UtilizationAndFilters) {
  TaskSet ts;
  ts.add(make_task(0, 10, 2, 10, 0, 0));
  ts.add(make_task(1, 20, 5, 20, 1, 0));
  ts.add(make_task(2, 40, 4, 40, 0, 1));
  EXPECT_NEAR(ts.utilization(), 0.2 + 0.25 + 0.1, 1e-12);
  EXPECT_NEAR(ts.filter_device(DeviceId{0}).utilization(), 0.45, 1e-12);
  EXPECT_EQ(ts.filter_vm(VmId{0}).size(), 2u);
  EXPECT_EQ(ts.filter_device(DeviceId{1}).size(), 1u);
  EXPECT_EQ(ts.devices().size(), 2u);
  EXPECT_EQ(ts.hyperperiod(), Slot{40});
}

TEST(TaskSet, HyperperiodOverflowThrows) {
  TaskSet ts;
  ts.add(make_task(0, 1'000'003, 1, 1'000'003));
  ts.add(make_task(1, 999'983, 1, 999'983));
  ts.add(make_task(2, 999'979, 1, 999'979));
  EXPECT_FALSE(ts.hyperperiod(Slot{1} << 30).has_value());
  // checked_lcm, which sizes a Time Slot Table, throws there instead.
  EXPECT_THROW((void)checked_lcm(1'000'003, 999'983, Slot{1} << 30),
               CheckFailure);
}

TEST(Automotive, DatabaseShape) {
  const auto& entries = automotive_entries();
  ASSERT_EQ(entries.size(), 40u);
  std::size_t safety = 0, function = 0;
  std::set<std::string_view> names;
  for (const auto& e : entries) {
    names.insert(e.name);
    if (e.cls == TaskClass::kSafety) ++safety;
    if (e.cls == TaskClass::kFunction) ++function;
    EXPECT_GT(e.period_ms, 0u);
    EXPECT_GT(e.io_demand_us, 0u);
  }
  EXPECT_EQ(safety, 20u);
  EXPECT_EQ(function, 20u);
  EXPECT_EQ(names.size(), 40u) << "names must be unique";
}

TEST(Automotive, BaseUtilizationNearFortyPercent) {
  // Sec. V-C: "overall system utilization approximately 40%", the 40-entry
  // table's summed I/O demand over period before synthetic filler.
  double u = 0.0;
  for (const auto& e : automotive_entries())
    u += static_cast<double>(e.io_demand_us) /
         (static_cast<double>(e.period_ms) * 1000.0);
  EXPECT_NEAR(u, 0.40, 0.05);
}

TEST(UUniFast, SumsToTotalAndPositive) {
  Rng rng(3);
  for (int rep = 0; rep < 50; ++rep) {
    const auto u = uunifast(rng, 6, 0.75);
    double sum = 0.0;
    for (double x : u) {
      EXPECT_GT(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 0.75, 1e-9);
  }
}

TEST(CaseStudy, BuilderHitsTargetUtilizationPerDevice) {
  CaseStudyConfig cfg;
  cfg.num_vms = 4;
  cfg.target_utilization = 0.8;
  cfg.seed = 5;
  const auto wl = build_case_study(cfg);
  for (std::size_t d = 0; d < kCaseStudyDeviceCount; ++d) {
    const double u =
        wl.tasks.filter_device(DeviceId{(std::uint32_t)d}).utilization();
    EXPECT_NEAR(u, 0.8, 0.06) << "device " << d;
  }
}

TEST(CaseStudy, PreloadFractionAssignsPredefinedPerClass) {
  CaseStudyConfig cfg;
  cfg.num_vms = 4;
  cfg.target_utilization = 0.6;
  cfg.preload_fraction = 0.4;
  const auto wl = build_case_study(cfg);
  const auto pre = wl.predefined();
  const auto total = wl.tasks.size();
  EXPECT_NEAR(static_cast<double>(pre.size()) / total, 0.4, 0.06);
  // Proportional selection: ~40% of each class is pre-loaded.
  std::map<TaskClass, std::size_t> pre_count, all_count;
  for (const auto& t : wl.tasks.tasks()) {
    ++all_count[t.cls];
    if (t.kind == TaskKind::kPredefined) ++pre_count[t.cls];
  }
  for (auto cls : {TaskClass::kSafety, TaskClass::kFunction,
                   TaskClass::kSynthetic}) {
    ASSERT_GT(all_count[cls], 0u);
    EXPECT_NEAR(static_cast<double>(pre_count[cls]) / all_count[cls], 0.4,
                0.15)
        << to_string(cls);
  }
}

TEST(CaseStudy, PredefinedPeriodsSnapToMenu) {
  CaseStudyConfig cfg;
  cfg.num_vms = 8;
  cfg.target_utilization = 0.9;
  cfg.preload_fraction = 1.0;  // force synthetic tasks to snap too
  const auto wl = build_case_study(cfg);
  std::set<Slot> menu;
  for (auto ms : cfg.period_menu_ms) menu.insert(Slot{ms} * kSlotsPerMs);
  const auto pre = wl.predefined();
  for (const auto& t : pre.tasks())
    EXPECT_TRUE(menu.count(t.period)) << t.name << " period " << t.period;
  // Menu lcm is 100 ms => hyper-period of pre-defined tasks stays bounded.
  EXPECT_LE(wl.predefined().hyperperiod().value(), Slot{100} * kSlotsPerMs);
}

TEST(CaseStudy, DeterministicForSameSeed) {
  CaseStudyConfig cfg;
  cfg.seed = 77;
  const auto a = build_case_study(cfg);
  const auto b = build_case_study(cfg);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].name, b.tasks[i].name);
    EXPECT_EQ(a.tasks[i].period, b.tasks[i].period);
    EXPECT_EQ(a.tasks[i].wcet, b.tasks[i].wcet);
    EXPECT_EQ(a.tasks[i].vm, b.tasks[i].vm);
  }
}

TEST(CaseStudy, VmAssignmentCoversAllVms) {
  CaseStudyConfig cfg;
  cfg.num_vms = 8;
  const auto wl = build_case_study(cfg);
  for (std::uint32_t v = 0; v < 8; ++v)
    EXPECT_FALSE(wl.tasks.filter_vm(VmId{v}).empty()) << "vm " << v;
  EXPECT_TRUE(wl.tasks.filter_vm(VmId{8}).empty());
}

TEST(Arrivals, PredefinedStrictlyPeriodic) {
  TaskSet ts;
  auto t = make_task(0, 100, 5, 100);
  t.kind = TaskKind::kPredefined;
  t.offset = 10;
  ts.add(t);
  ArrivalConfig cfg;
  cfg.horizon = 1000;
  const auto trace = generate_trace(ts, cfg);
  ASSERT_EQ(trace.size(), 10u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].release, 10 + 100 * i);
    EXPECT_EQ(trace[i].absolute_deadline, trace[i].release + 100);
  }
}

TEST(Arrivals, SporadicRespectsMinimumSeparation) {
  TaskSet ts;
  ts.add(make_task(0, 50, 5, 50));
  ArrivalConfig cfg;
  cfg.horizon = 100000;
  cfg.jitter_frac = 0.3;
  const auto trace = generate_trace(ts, cfg);
  ASSERT_GT(trace.size(), 100u);
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_GE(trace[i].release - trace[i - 1].release, 50u);
}

TEST(Arrivals, ExecutionDemandWithinWcet) {
  TaskSet ts;
  ts.add(make_task(0, 50, 10, 50));
  ArrivalConfig cfg;
  cfg.horizon = 50000;
  const auto trace = generate_trace(ts, cfg);
  for (const auto& j : trace) {
    EXPECT_GE(j.wcet, 1u);
    EXPECT_LE(j.wcet, 10u);
  }
}

TEST(Arrivals, SortedAndDenseJobIds) {
  CaseStudyConfig cfg;
  const auto wl = build_case_study(cfg);
  ArrivalConfig acfg;
  acfg.horizon = 20000;
  const auto trace = generate_trace(wl.tasks, acfg);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].id.value, i);
    if (i) {
      EXPECT_LE(trace[i - 1].release, trace[i].release);
    }
  }
}

TEST(Arrivals, HorizonForMinJobsCoversEveryTask) {
  CaseStudyConfig cfg;
  const auto wl = build_case_study(cfg);
  const Slot h = horizon_for_min_jobs(wl.tasks, 5);
  ArrivalConfig acfg;
  acfg.horizon = h;
  acfg.jitter_frac = 0.0;
  const auto trace = generate_trace(wl.tasks, acfg);
  std::map<std::uint32_t, int> counts;
  for (const auto& j : trace) counts[j.task.value]++;
  for (const auto& t : wl.tasks.tasks())
    EXPECT_GE(counts[t.id.value], 5) << t.name;
}

/// The generator as it was before the streams were merged: every task's
/// releases pushed in task order, then the whole trace sorted by (release,
/// task id) and numbered. The oracle for the merge.
std::vector<Job> sorted_trace(const TaskSet& tasks,
                              const ArrivalConfig& config) {
  Rng rng(config.seed);
  std::vector<Job> jobs;
  for (const auto& t : tasks.tasks()) {
    Rng task_rng = rng.fork(t.id.value);
    Slot release = t.kind == TaskKind::kPredefined ? t.offset : Slot{0};
    while (release < config.horizon) {
      Job j;
      j.task = t.id;
      j.vm = t.vm;
      j.device = t.device;
      j.release = release;
      j.absolute_deadline = release + t.deadline;
      const double frac =
          task_rng.uniform(config.exec_frac_lo, config.exec_frac_hi);
      j.wcet = std::max<Slot>(
          1, static_cast<Slot>(std::llround(frac * static_cast<double>(t.wcet))));
      j.payload_bytes = t.payload_bytes;
      jobs.push_back(j);
      if (t.kind == TaskKind::kPredefined) {
        release += t.period;
      } else {
        const double slack = config.jitter_frac <= 0.0
                                 ? 0.0
                                 : task_rng.exponential(
                                       config.jitter_frac *
                                       static_cast<double>(t.period));
        release += t.period + static_cast<Slot>(std::llround(slack));
      }
    }
  }
  std::sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.release != b.release ? a.release < b.release
                                  : a.task.value < b.task.value;
  });
  for (std::size_t i = 0; i < jobs.size(); ++i)
    jobs[i].id = JobId{static_cast<std::uint32_t>(i)};
  return jobs;
}

TEST(Arrivals, MergedStreamsMatchTheSortedTrace) {
  // Random task sets over a short period menu, so releases of different
  // tasks coincide; ids are shuffled, so the (release, task id) tie-break
  // is not task order; some pre-defined offsets lie past the horizon.
  const std::vector<Slot> periods = {3, 5, 10, 20, 25, 50};
  std::size_t ties = 0, silent_tasks = 0, jobs_compared = 0;
  for (std::uint64_t round = 0; round < 200; ++round) {
    Rng rng(0x7ace + round);
    const std::size_t n = 1 + rng.index(12);
    std::vector<std::uint32_t> ids(n);
    std::iota(ids.begin(), ids.end(), 0u);
    rng.shuffle(ids);
    ArrivalConfig cfg;
    cfg.horizon = 1 + rng.uniform_int(0, 600);
    cfg.jitter_frac = round % 3 == 0 ? 0.0 : round % 3 == 1 ? 0.005 : 0.4;
    cfg.exec_frac_lo = 0.3 + 0.5 * rng.uniform();
    cfg.seed = rng();
    TaskSet ts;
    for (std::size_t k = 0; k < n; ++k) {
      const Slot period = periods[rng.index(periods.size())];
      auto t = make_task(ids[k], period, 1 + rng.uniform_int(0, period - 1),
                         period, static_cast<std::uint32_t>(rng.index(4)),
                         static_cast<std::uint32_t>(rng.index(4)));
      if (rng.bernoulli(0.5)) {
        t.kind = TaskKind::kPredefined;
        t.offset = rng.bernoulli(0.2) ? cfg.horizon + rng.uniform_int(0, 9)
                                      : rng.uniform_int(0, 2 * period);
        if (t.offset >= cfg.horizon) ++silent_tasks;
      }
      ts.add(t);
    }
    SCOPED_TRACE("round " + std::to_string(round));
    const auto expected = sorted_trace(ts, cfg);
    const auto merged = generate_trace(ts, cfg);
    ASSERT_EQ(merged.size(), expected.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      EXPECT_EQ(merged[i].id, expected[i].id);
      EXPECT_EQ(merged[i].task, expected[i].task);
      EXPECT_EQ(merged[i].vm, expected[i].vm);
      EXPECT_EQ(merged[i].device, expected[i].device);
      EXPECT_EQ(merged[i].release, expected[i].release);
      EXPECT_EQ(merged[i].absolute_deadline, expected[i].absolute_deadline);
      EXPECT_EQ(merged[i].wcet, expected[i].wcet);
      EXPECT_EQ(merged[i].payload_bytes, expected[i].payload_bytes);
      if (i > 0 && expected[i].release == expected[i - 1].release) ++ties;
    }
    jobs_compared += merged.size();
  }
  // The sets did exercise what the merge must get right.
  EXPECT_GT(ties, 100u);
  EXPECT_GT(silent_tasks, 10u);
  EXPECT_GT(jobs_compared, 10000u);
}

}  // namespace
}  // namespace ioguard::workload
