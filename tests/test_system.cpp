// Unit tests for the full-system models: pipeline stages, the trial runner
// on all four architectures, and the software footprint model (Fig. 6).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/event_trace.hpp"
#include "system/config.hpp"
#include "system/experiment.hpp"
#include "system/runner.hpp"
#include "system/stages.hpp"
#include "system/sw_footprint.hpp"

namespace ioguard::sys {
namespace {

workload::Job make_job(std::uint32_t id, std::uint32_t vm = 0) {
  workload::Job j;
  j.id = JobId{id};
  j.task = TaskId{id};
  j.vm = VmId{vm};
  j.device = DeviceId{0};
  j.release = 0;
  j.absolute_deadline = 1000;
  j.wcet = 2;
  j.payload_bytes = 16;
  return j;
}

// -------------------------------------------------------------------- stages

TEST(IssueStage, ThroughputLimitedByIssueCost) {
  // 1000-cycle issues on a 100-cycle slot: one request per 10 slots.
  IssueStage stage(1000, 100);
  for (std::uint32_t i = 0; i < 3; ++i) stage.push(make_job(i));
  std::vector<workload::Job> out;
  int slots_to_first = 0;
  while (out.empty()) {
    stage.tick_slot(out);
    ++slots_to_first;
  }
  EXPECT_EQ(slots_to_first, 10);
  out.clear();
  for (int s = 0; s < 20; ++s) stage.tick_slot(out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(stage.idle());
}

TEST(IssueStage, CheapIssuesBatchInOneSlot) {
  IssueStage stage(20, 100);  // five issues per slot
  for (std::uint32_t i = 0; i < 5; ++i) stage.push(make_job(i));
  std::vector<workload::Job> out;
  stage.tick_slot(out);
  EXPECT_EQ(out.size(), 5u);
}

TEST(IssueStage, PreservesFifoOrder) {
  IssueStage stage(150, 100);
  for (std::uint32_t i = 0; i < 4; ++i) stage.push(make_job(i));
  std::vector<workload::Job> out;
  for (int s = 0; s < 10; ++s) stage.tick_slot(out);
  ASSERT_EQ(out.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].id.value, i);
}

TEST(VmmStage, AddsQuantumDelayAndServiceTime) {
  Calibration cal;
  VmmStage vmm(cal, 4, 1);
  vmm.push(make_job(0), 0);
  std::vector<workload::Job> out;
  Slot finished_at = 0;
  for (Slot s = 0; s < 200 && out.empty(); ++s) {
    vmm.tick_slot(s, out);
    finished_at = s;
  }
  ASSERT_EQ(out.size(), 1u);
  // At least the service time (12+4*0.15 us = ~18 slots worst), at most
  // quantum + service.
  EXPECT_LE(finished_at, cal.vmm_quantum_slots + 60);
}

TEST(VmmStage, ServiceScalesWithVmCount) {
  Calibration cal;
  VmmStage few(cal, 2, 1), many(cal, 16, 1);
  EXPECT_LT(few.op_cycles(), many.op_cycles());
}

TEST(VmmStage, BacklogDrainsInOrder) {
  Calibration cal;
  cal.vmm_quantum_slots = 1;  // isolate the server behaviour
  VmmStage vmm(cal, 4, 1);
  for (std::uint32_t i = 0; i < 10; ++i) vmm.push(make_job(i), 0);
  std::vector<workload::Job> out;
  for (Slot s = 0; s < 500; ++s) vmm.tick_slot(s, out);
  ASSERT_EQ(out.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(out[i].id.value, i);
  EXPECT_TRUE(vmm.idle());
}

TEST(TransitModel, IoGuardIsFastAndDeterministicallyBounded) {
  Calibration cal;
  TransitModel t(cal, SystemKind::kIoGuard, 8, 0.9, 1);
  EXPECT_LT(t.mean_cycles(), 100.0);
  for (int i = 0; i < 1000; ++i) EXPECT_LE(t.sample(), 1u);
}

TEST(TransitModel, NocContentionGrowsWithVmsAndLoad) {
  Calibration cal;
  TransitModel light(cal, SystemKind::kLegacy, 4, 0.4, 1);
  TransitModel heavy(cal, SystemKind::kLegacy, 8, 0.9, 1);
  EXPECT_GT(heavy.mean_cycles(), light.mean_cycles());
}

TEST(TransitModel, SampleMeanTracksModelMean) {
  Calibration cal;
  TransitModel t(cal, SystemKind::kBlueVisor, 8, 0.7, 42);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(t.sample());
  const double mean_slots =
      t.mean_cycles() / static_cast<double>(kDefaultCyclesPerSlot);
  EXPECT_NEAR(sum / n, mean_slots, 0.05 + mean_slots * 0.1);
}

// -------------------------------------------------------------------- runner

TrialConfig base_trial(SystemKind kind, double util, double preload = 0.0) {
  TrialConfig tc;
  tc.kind = kind;
  tc.workload.num_vms = 4;
  tc.workload.target_utilization = util;
  tc.workload.preload_fraction = preload;
  tc.min_jobs_per_task = 5;  // short horizons keep unit tests fast
  tc.trial_seed = 3;
  return tc;
}

TEST(Runner, AllSystemsSucceedAtLowUtilization) {
  for (SystemKind kind :
       {SystemKind::kLegacy, SystemKind::kRtXen, SystemKind::kBlueVisor,
        SystemKind::kIoGuard}) {
    const auto r =
        run_trial(base_trial(kind, 0.4, kind == SystemKind::kIoGuard ? 0.4 : 0.0));
    EXPECT_TRUE(r.success()) << to_string(kind) << " misses="
                             << r.critical_misses << "/" << r.jobs_counted;
    EXPECT_GT(r.jobs_counted, 100u);
    EXPECT_GT(r.goodput_bytes_per_s, 0.0);
  }
}

TEST(Runner, FifoBaselinesDegradeAtHighUtilization) {
  // At 95% target utilization the non-preemptive FIFO systems miss
  // deadlines; I/O-GUARD-70 keeps the critical tasks safe far more often.
  std::uint64_t fifo_misses = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto tc = base_trial(SystemKind::kLegacy, 0.95);
    tc.trial_seed = seed;
    fifo_misses += run_trial(tc).critical_misses;
  }
  std::uint64_t ioguard_misses = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto tc = base_trial(SystemKind::kIoGuard, 0.95, 0.7);
    tc.trial_seed = seed;
    ioguard_misses += run_trial(tc).critical_misses;
  }
  EXPECT_GT(fifo_misses, 0u);
  EXPECT_LT(ioguard_misses, fifo_misses / 2 + 1);
}

TEST(Runner, DeterministicForSameConfig) {
  const auto a = run_trial(base_trial(SystemKind::kBlueVisor, 0.7));
  const auto b = run_trial(base_trial(SystemKind::kBlueVisor, 0.7));
  EXPECT_EQ(a.jobs_counted, b.jobs_counted);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_DOUBLE_EQ(a.goodput_bytes_per_s, b.goodput_bytes_per_s);
}

TEST(Runner, DeviceBusyFractionTracksUtilization) {
  const auto r = run_trial(base_trial(SystemKind::kLegacy, 0.6));
  EXPECT_GT(r.device_busy_frac, 0.3);
  EXPECT_LT(r.device_busy_frac, 0.75);
}

TEST(Runner, IoGuardAdmissionReportedAtLowLoad) {
  const auto r = run_trial(base_trial(SystemKind::kIoGuard, 0.45, 0.4));
  EXPECT_TRUE(r.admitted);
}

/// Full trial summary (config echo + every result figure) as bytes, the
/// same serialization CI artifacts use — so equality here is equality of
/// everything a consumer can observe from a trial.
std::string summary_bytes(const TrialConfig& tc) {
  std::ostringstream os;
  write_trial_summary_json(os, tc, run_trial(tc));
  return os.str();
}

/// Every event `tc` records, as CSV rows (slot,kind,device,vm,task,job,aux),
/// from a trace ring that never wraps: summaries and metrics count events,
/// but only the sequence shows one that moved to another slot.
std::vector<std::string> traced_events(TrialConfig tc) {
  core::EventTrace trace(std::size_t{1} << 19);
  tc.trace = &trace;
  (void)run_trial(tc);
  EXPECT_EQ(trace.overwritten(), 0u) << "the ring wrapped; enlarge it";
  std::ostringstream os;
  trace.dump_csv(os);
  std::vector<std::string> rows;
  std::istringstream is(os.str());
  for (std::string row; std::getline(is, row);) rows.push_back(row);
  return rows;
}

/// Event mode and the stepped reference record the same events in the same
/// order; a failure names the first row that differs.
void expect_same_events(TrialConfig tc) {
  tc.stepped = false;
  const std::vector<std::string> event = traced_events(tc);
  tc.stepped = true;
  const std::vector<std::string> stepped = traced_events(tc);
  EXPECT_GT(event.size(), 1000u) << "the trial must trace something";
  const std::size_t n = std::min(event.size(), stepped.size());
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(event[i], stepped[i]) << "first differing trace row " << i;
  EXPECT_EQ(event.size(), stepped.size());
}

TEST(Runner, EventDrivenMatchesSteppedReferenceAllSystems) {
  for (const SystemKind kind :
       {SystemKind::kLegacy, SystemKind::kBlueVisor, SystemKind::kRtXen,
        SystemKind::kIoGuard}) {
    auto tc = base_trial(kind, 0.5, 0.4);
    tc.stepped = false;
    const std::string event = summary_bytes(tc);
    tc.stepped = true;
    const std::string stepped = summary_bytes(tc);
    EXPECT_EQ(event, stepped) << "system kind " << static_cast<int>(kind);
  }
}

TEST(Runner, EventDrivenMatchesSteppedReferenceUnderFaults) {
  auto plan = faults::FaultPlan::parse("mixed");
  ASSERT_TRUE(plan.ok());
  for (const SystemKind kind : {SystemKind::kIoGuard, SystemKind::kBlueVisor}) {
    auto tc = base_trial(kind, 0.6, 0.5);
    tc.faults = *plan;
    tc.stepped = false;
    const std::string event = summary_bytes(tc);
    tc.stepped = true;
    EXPECT_EQ(event, summary_bytes(tc)) << "system kind "
                                        << static_cast<int>(kind);
    // Only the hypervisor traces enough events to compare sequences.
    if (kind == SystemKind::kIoGuard) expect_same_events(tc);
  }
}

TEST(Runner, EventDrivenMatchesSteppedReferenceUnderModeSwitches) {
  // Budget overruns switch VMs to HI mid-trial: each switch sheds LO pool
  // entries, and each recovery restores the servers.
  auto tc = base_trial(SystemKind::kIoGuard, 0.8, 0.5);
  tc.workload.mixed_criticality = true;
  tc.min_jobs_per_task = 8;
  auto plan = faults::FaultPlan::parse("overrun:rate=0.05,param=40");
  ASSERT_TRUE(plan.ok());
  tc.faults = *plan;
  tc.mode_switch.enabled = true;
  tc.mode_switch.overrun_threshold = 1;
  tc.mode_switch.recovery_hysteresis_slots = 200;
  tc.mode_switch.hi_budget_factor = 1.5;
  const auto r = run_trial(tc);
  EXPECT_GT(r.mcs.switches_to_hi, 0u);
  EXPECT_GT(r.mcs.lo_jobs_shed, 0u);
  tc.stepped = false;
  const std::string event = summary_bytes(tc);
  tc.stepped = true;
  EXPECT_EQ(event, summary_bytes(tc));
  expect_same_events(tc);
}

TEST(Runner, EventDrivenMatchesSteppedReferenceWithObservability) {
  // Profiling exercises the skipped-slot attribution: quiescent stretches
  // the event loop jumps must land in the same per-component counters the
  // dense loop fills one slot at a time, on the hypervisor's managers and
  // on the baselines' FIFO controllers alike.
  for (const SystemKind kind : {SystemKind::kIoGuard, SystemKind::kBlueVisor}) {
    for (const double util : {0.05, 0.9}) {
      auto tc = base_trial(kind, util, 0.3);
      tc.collect_profile = true;
      tc.collect_jitter = true;
      tc.stepped = false;
      const std::string event = summary_bytes(tc);
      tc.stepped = true;
      EXPECT_EQ(event, summary_bytes(tc))
          << "system kind " << static_cast<int>(kind) << ", util " << util;
    }
  }
}

TEST(Runner, HorizonOverrideRespected) {
  auto tc = base_trial(SystemKind::kLegacy, 0.5);
  tc.horizon = 12345;
  const auto r = run_trial(tc);
  EXPECT_EQ(r.horizon, 12345u);
}

// ---------------------------------------------------------------- experiment

TEST(Experiment, Figure7SystemsListMatchesPaper) {
  const auto systems = figure7_systems();
  ASSERT_EQ(systems.size(), 5u);
  EXPECT_EQ(systems[0].label, "BS|Legacy");
  EXPECT_EQ(systems[3].label, "I/O-GUARD-40");
  EXPECT_DOUBLE_EQ(systems[4].preload_fraction, 0.7);
}

TEST(Experiment, UtilizationSweepMatchesPaper) {
  const auto sweep = utilization_sweep();
  ASSERT_EQ(sweep.size(), 13u);
  EXPECT_DOUBLE_EQ(sweep.front(), 0.40);
  EXPECT_DOUBLE_EQ(sweep.back(), 1.00);
}

TEST(Experiment, RunPointAggregates) {
  ExperimentConfig cfg;
  cfg.trials = 3;
  cfg.min_jobs_per_task = 5;
  const auto p = run_point(figure7_systems()[0], 4, 0.4, cfg);
  EXPECT_EQ(p.trials, 3u);
  EXPECT_GE(p.success_ratio(), 0.0);
  EXPECT_LE(p.success_ratio(), 1.0);
  EXPECT_EQ(p.goodput_mbps.count(), 3u);
}

// -------------------------------------------------------------- sw footprint

TEST(SwFootprint, RtXenOverheadMatchesPaperAnchor) {
  // "an additional 61 KB (129.8%) memory footprint compared to the legacy
  // system".
  const auto legacy = kernel_stack_footprint(SystemKind::kLegacy);
  const auto rtxen = kernel_stack_footprint(SystemKind::kRtXen);
  const double extra_kb = rtxen.total_kb() - legacy.total_kb();
  EXPECT_NEAR(extra_kb, 61.0, 1.0);
  EXPECT_NEAR(extra_kb / legacy.total_kb(), 1.298, 0.05);
}

TEST(SwFootprint, OrderingAcrossSystems) {
  // RT-XEN > Legacy > BV > I/O-GUARD on every component group.
  const auto k = [](SystemKind s) { return kernel_stack_footprint(s).total(); };
  EXPECT_GT(k(SystemKind::kRtXen), k(SystemKind::kLegacy));
  EXPECT_GT(k(SystemKind::kLegacy), k(SystemKind::kBlueVisor));
  EXPECT_GT(k(SystemKind::kBlueVisor), k(SystemKind::kIoGuard));

  for (SwComponent c :
       {SwComponent::kUartDriver, SwComponent::kEthernetDriver,
        SwComponent::kFlexRayDriver}) {
    EXPECT_GT(sw_footprint(SystemKind::kRtXen, c).total(),
              sw_footprint(SystemKind::kLegacy, c).total());
    EXPECT_GT(sw_footprint(SystemKind::kLegacy, c).total(),
              sw_footprint(SystemKind::kBlueVisor, c).total());
    EXPECT_GT(sw_footprint(SystemKind::kBlueVisor, c).total(),
              sw_footprint(SystemKind::kIoGuard, c).total());
  }
}

TEST(SwFootprint, IoGuardHasNoSoftwareHypervisor) {
  EXPECT_EQ(sw_footprint(SystemKind::kIoGuard, SwComponent::kHypervisor).total(),
            0u);
  EXPECT_EQ(sw_footprint(SystemKind::kLegacy, SwComponent::kHypervisor).total(),
            0u);
  EXPECT_GT(sw_footprint(SystemKind::kRtXen, SwComponent::kHypervisor).total(),
            50u * 1024u);
}

TEST(SwFootprint, TotalsAreComponentSums) {
  for (SystemKind s : {SystemKind::kLegacy, SystemKind::kRtXen,
                       SystemKind::kBlueVisor, SystemKind::kIoGuard}) {
    Footprint sum;
    for (SwComponent c : all_sw_components()) sum = sum + sw_footprint(s, c);
    EXPECT_EQ(sum.total(), total_sw_footprint(s).total());
  }
}

}  // namespace
}  // namespace ioguard::sys
