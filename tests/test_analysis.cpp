// Unit tests for src/analysis: one test per diagnostic code, each proving
// the code fires on a corrupted artifact and stays silent on a valid one.
// Corruptions go through the same public surfaces the verifier consumes:
// raw slot vectors re-ingested via TimeSlotTable::from_slots, malformed
// ServerParams / task sets, and injected supply functions.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/artifact_builder.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/verifier.hpp"
#include "analysis/verify_config.hpp"
#include "analysis/verify_servers.hpp"
#include "analysis/verify_supply.hpp"
#include "analysis/verify_table.hpp"
#include "sched/admission.hpp"
#include "sched/sbf.hpp"
#include "sched/slot_table.hpp"
#include "workload/generator.hpp"

namespace ioguard::analysis {
namespace {

using sched::ServerParams;
using sched::TableSupply;
using sched::TimeSlotTable;
using workload::IoTaskSpec;
using workload::TaskKind;
using workload::TaskSet;

IoTaskSpec predef(std::uint32_t id, Slot t, Slot c, Slot d, Slot offset = 0) {
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

IoTaskSpec vm_task(std::uint32_t id, Slot t, Slot c, Slot d,
                   std::uint32_t vm = 0, std::uint32_t dev = 0) {
  IoTaskSpec s = predef(id, t, c, d);
  s.kind = TaskKind::kRuntime;
  s.vm = VmId{vm};
  s.device = DeviceId{dev};
  s.name = std::string("r").append(std::to_string(id));
  return s;
}

/// Two pre-defined tasks with H = 20, demand 8, F = 12.
TaskSet small_predefined() {
  TaskSet set;
  set.add(predef(1, 10, 2, 10));
  set.add(predef(2, 20, 4, 20));
  return set;
}

TimeSlotTable small_table() {
  auto build = sched::build_time_slot_table(small_predefined());
  EXPECT_TRUE(build.feasible);
  return build.table;
}

std::size_t find_owned(const std::vector<std::uint32_t>& raw,
                       std::uint32_t id) {
  for (std::size_t s = 0; s < raw.size(); ++s)
    if (raw[s] == id) return s;
  return raw.size();
}

std::size_t find_free(const std::vector<std::uint32_t>& raw) {
  return find_owned(raw, TimeSlotTable::kFree);
}

Report verify_raw(std::vector<std::uint32_t> raw, const TaskSet& predefined) {
  Report report;
  verify_slot_table(TimeSlotTable::from_slots(std::move(raw)), predefined,
                    report);
  return report;
}

// ---- SIGxxx: sigma* invariants ---------------------------------------------

TEST(VerifyTable, CleanTableIsSilent) {
  Report report;
  verify_slot_table(small_table(), small_predefined(), report);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.diagnostics().empty());
}

TEST(VerifyTable, Sig001FiresOnFreeCountMismatch) {
  auto raw = small_table().raw();
  // Freeing a reserved slot keeps raw()/free_slots() consistent (from_slots
  // recounts), but breaks the demand identity F = H - sum(C * H/T).
  raw[find_owned(raw, 1)] = TimeSlotTable::kFree;
  const auto report = verify_raw(std::move(raw), small_predefined());
  EXPECT_TRUE(report.has(DiagCode::kSigFreeCountMismatch));
  EXPECT_FALSE(report.ok());
}

TEST(VerifyTable, Sig002FiresOnUnknownOccupant) {
  auto raw = small_table().raw();
  raw[find_free(raw)] = 999;  // not a task id of the pre-defined set
  const auto report = verify_raw(std::move(raw), small_predefined());
  EXPECT_TRUE(report.has(DiagCode::kSigUnknownOccupant));
}

TEST(VerifyTable, Sig003FiresOnStolenSlot) {
  auto raw = small_table().raw();
  raw[find_owned(raw, 2)] = TimeSlotTable::kFree;
  const auto report = verify_raw(std::move(raw), small_predefined());
  EXPECT_TRUE(report.has(DiagCode::kSigJobUnderAllocated));
}

TEST(VerifyTable, Sig004FiresOnSurplusSlot) {
  auto raw = small_table().raw();
  raw[find_free(raw)] = 1;  // a fifth slot for a task needing 2 * 2
  const auto report = verify_raw(std::move(raw), small_predefined());
  EXPECT_TRUE(report.has(DiagCode::kSigTaskSlotSurplus));
}

TEST(VerifyTable, Sig005FiresOnSlotOutsideJobWindow) {
  // One task (T=10, C=1, D=2): its only slot must sit in [0, 2).
  TaskSet set;
  set.add(predef(1, 10, 1, 2));
  auto build = sched::build_time_slot_table(set);
  ASSERT_TRUE(build.feasible);
  auto raw = build.table.raw();
  const std::size_t s = find_owned(raw, 1);
  ASSERT_LT(s, std::size_t{2});
  raw[s] = TimeSlotTable::kFree;
  raw[5] = 1;  // deadline long past, next job not yet released
  const auto report = verify_raw(std::move(raw), set);
  EXPECT_TRUE(report.has(DiagCode::kSigSlotOutsideWindow));
  EXPECT_TRUE(report.has(DiagCode::kSigJobUnderAllocated));
}

TEST(VerifyTable, Sig006FiresOnPeriodNotDividingHyperperiod) {
  auto raw = small_table().raw();
  raw.pop_back();  // 19 slots; neither period 10 nor 20 divides 19
  const auto report = verify_raw(std::move(raw), small_predefined());
  EXPECT_TRUE(report.has(DiagCode::kSigPeriodNotDividingH));
}

TEST(VerifyTable, Sig007FiresOnBadPredefinedParameters) {
  // TaskSet::add rejects broken specs up front; the vector constructor is
  // the unvalidated ingestion path (deserialized artifacts), which is what
  // the verifier exists to cover.
  const TaskSet zero_wcet(std::vector<IoTaskSpec>{predef(1, 10, 0, 10)});
  Report report;
  verify_slot_table(TimeSlotTable(10), zero_wcet, report);
  EXPECT_TRUE(report.has(DiagCode::kSigBadPredefinedTask));

  TaskSet offset_past_period;
  offset_past_period.add(predef(2, 10, 1, 10, /*offset=*/10));
  Report report2;
  verify_slot_table(TimeSlotTable(10), offset_past_period, report2);
  EXPECT_TRUE(report2.has(DiagCode::kSigBadPredefinedTask));
}

// ---- SUPxxx: supply bound function shape + global admission ----------------

TEST(VerifySupply, RealTableSupplyIsSilent) {
  const TableSupply supply(small_table());
  Report report;
  verify_supply(supply, {}, report);
  EXPECT_TRUE(report.diagnostics().empty());
}

TEST(VerifySupply, Sup001FiresOnNonMonotoneSupply) {
  Report report;
  verify_supply_function(
      [](Slot t) { return t == 3 ? Slot{0} : t / 2; }, /*h=*/10, /*f=*/5, {},
      report);
  EXPECT_TRUE(report.has(DiagCode::kSupNonMonotone));
}

TEST(VerifySupply, Sup002FiresOnSuperadditivityViolation) {
  // sbf jumps to 1 immediately and to 2 only at t >= 8: two short windows
  // claim more supply than the window covering both.
  Report report;
  verify_supply_function(
      [](Slot t) { return std::min<Slot>(t, 1) + (t >= 8 ? Slot{1} : Slot{0}); },
      /*h=*/10, /*f=*/2, {}, report);
  EXPECT_TRUE(report.has(DiagCode::kSupSuperadditivity));
}

TEST(VerifySupply, Sup003FiresOnBrokenPeriodicExtension) {
  // A plateau at 3 cannot satisfy sbf(t + H) = sbf(t) + F with F = 5.
  Report report;
  verify_supply_function([](Slot t) { return std::min<Slot>(t, 3); },
                         /*h=*/10, /*f=*/5, {}, report);
  EXPECT_TRUE(report.has(DiagCode::kSupPeriodicExtension));
}

TEST(VerifySupply, Sup006FiresOnSupplyExceedingWindow) {
  Report report;
  verify_supply_function([](Slot t) { return 2 * t; }, /*h=*/10, /*f=*/5, {},
                         report);
  EXPECT_TRUE(report.has(DiagCode::kSupExceedsWindow));
}

TEST(VerifySupply, Sup004FiresOnZeroSlack) {
  const TableSupply supply(small_table());  // F/H = 12/20
  Report report;
  verify_global_admission(supply, {{10, 10}, {10, 10}}, {}, report);
  EXPECT_TRUE(report.has(DiagCode::kSupZeroSlack));

  Report fine;
  verify_global_admission(supply, {{10, 2}}, {}, fine);
  EXPECT_FALSE(fine.has(DiagCode::kSupZeroSlack));
  EXPECT_TRUE(fine.ok());  // theorems 1 and 2 agree on the sound system
}

TEST(VerifySupply, Sup005FiresOnTheoremDisagreement) {
  sched::AdmissionResult yes;
  yes.schedulable = true;
  sched::AdmissionResult no;
  no.schedulable = false;
  no.violation_t = 7;

  Report report;
  check_global_agreement(yes, no, report);
  EXPECT_TRUE(report.has(DiagCode::kSupTheoremDisagreement));

  Report agree;
  check_global_agreement(yes, yes, agree);
  EXPECT_FALSE(agree.has(DiagCode::kSupTheoremDisagreement));
}

TEST(VerifySupply, Sup007ReportsSkippedAgreementAtInfoSeverity) {
  const TableSupply supply(small_table());  // H = 20
  SupplyCheckOptions options;
  options.lcm_cap = 4;  // lcm(20, 7) = 140 is far past the cap
  Report report;
  verify_global_admission(supply, {{7, 1}}, options, report);
  EXPECT_TRUE(report.has(DiagCode::kSupCheckSkipped));
  EXPECT_TRUE(report.ok());  // info severity never fails a run
}

// ---- LVLxxx: per-VM server checks ------------------------------------------

TaskSet one_vm_tasks() {
  TaskSet set;
  set.add(vm_task(10, 10, 1, 10));
  return set;
}

TEST(VerifyServers, SoundServerIsSilent) {
  Report report;
  verify_servers({{10, 5}}, {one_vm_tasks()}, {}, report);
  EXPECT_TRUE(report.diagnostics().empty());
}

TEST(VerifyServers, Lvl001FiresOnBudgetPastPeriod) {
  Report report;
  verify_servers({{10, 15}}, {one_vm_tasks()}, {}, report);
  EXPECT_TRUE(report.has(DiagCode::kLvlBadServerParams));

  Report zero_pi;
  verify_servers({{0, 0}}, {one_vm_tasks()}, {}, zero_pi);
  EXPECT_TRUE(zero_pi.has(DiagCode::kLvlBadServerParams));
}

TEST(VerifyServers, Lvl002FiresOnDeadlinePastPeriod) {
  const TaskSet set(std::vector<IoTaskSpec>{vm_task(10, 10, 1, 20)});
  Report report;
  verify_servers({{10, 5}}, {set}, {}, report);
  EXPECT_TRUE(report.has(DiagCode::kLvlDeadlineExceedsPeriod));
}

TEST(VerifyServers, Lvl003FiresOnBandwidthDeficit) {
  TaskSet set;
  set.add(vm_task(10, 10, 5, 10));  // utilization 0.5
  Report report;
  verify_servers({{1000, 1}}, {set}, {}, report);  // bandwidth 0.001
  EXPECT_TRUE(report.has(DiagCode::kLvlBandwidthDeficit));
}

TEST(VerifyServers, Lvl004FiresOnTheoremDisagreement) {
  sched::AdmissionResult yes;
  yes.schedulable = true;
  sched::AdmissionResult no;
  no.schedulable = false;

  Report report;
  check_vm_agreement(no, yes, /*vm=*/2, report);
  EXPECT_TRUE(report.has(DiagCode::kLvlTheoremDisagreement));

  Report agree;
  check_vm_agreement(no, no, /*vm=*/2, agree);
  EXPECT_FALSE(agree.has(DiagCode::kLvlTheoremDisagreement));
}

TEST(VerifyServers, Lvl005FiresOnServerCountMismatch) {
  Report report;
  verify_servers({{10, 5}, {10, 5}}, {one_vm_tasks()}, {}, report);
  EXPECT_TRUE(report.has(DiagCode::kLvlServerCountMismatch));
}

TEST(VerifyServers, Lvl006FiresOnZeroTaskParameters) {
  const TaskSet set(std::vector<IoTaskSpec>{vm_task(10, 10, 0, 10)});
  Report report;
  verify_servers({{10, 5}}, {set}, {}, report);
  EXPECT_TRUE(report.has(DiagCode::kLvlBadTaskParams));
}

TEST(VerifyServers, Lvl007ReportsSkippedAgreementAtInfoSeverity) {
  ServerCheckOptions options;
  options.lcm_cap = 4;  // lcm(7, 10) = 70 is past the cap
  Report report;
  verify_servers({{7, 6}}, {one_vm_tasks()}, options, report);
  EXPECT_TRUE(report.has(DiagCode::kLvlCheckSkipped));
  EXPECT_TRUE(report.ok());
}

// ---- CFGxxx: platform / experiment configuration ---------------------------

ExperimentSpec valid_experiment() {
  ExperimentSpec e;
  e.num_vms = 4;
  e.target_utilization = 0.4;
  e.preload_fraction = 0.7;
  e.trials = 10;
  e.min_jobs_per_task = 25;
  return e;
}

TaskSet one_config_task() {
  TaskSet set;
  set.add(vm_task(1, 10, 1, 10, /*vm=*/0, /*dev=*/0));
  return set;
}

TEST(VerifyConfig, ValidConfigIsSilent) {
  Report report;
  verify_config({}, valid_experiment(), one_config_task(), report);
  EXPECT_TRUE(report.diagnostics().empty());
}

TEST(VerifyConfig, Cfg001FiresWhenMeshCannotHostFloorplan) {
  PlatformSpec platform;
  platform.device_count = 10;  // nodes 20..29 overflow the 5x5 mesh
  Report report;
  verify_config(platform, valid_experiment(), one_config_task(), report);
  EXPECT_TRUE(report.has(DiagCode::kCfgBadNocDims));

  PlatformSpec degenerate;
  degenerate.noc_width = 0;
  Report report2;
  verify_config(degenerate, valid_experiment(), one_config_task(), report2);
  EXPECT_TRUE(report2.has(DiagCode::kCfgBadNocDims));
}

TEST(VerifyConfig, Cfg002FiresOnVmPlacementOverflow) {
  auto experiment = valid_experiment();
  experiment.num_vms = 40;  // the 5x5 mesh places at most 16 VMs
  Report report;
  verify_config({}, experiment, one_config_task(), report);
  EXPECT_TRUE(report.has(DiagCode::kCfgVmPlacementOverflow));
}

TEST(VerifyConfig, Cfg003FiresOnUnknownDeviceReference) {
  TaskSet set;
  set.add(vm_task(1, 10, 1, 10, /*vm=*/0, /*dev=*/17));
  Report report;
  verify_config({}, valid_experiment(), set, report);
  EXPECT_TRUE(report.has(DiagCode::kCfgUnknownDevice));
}

TEST(VerifyConfig, Cfg004FiresOnVmOutOfRange) {
  TaskSet set;
  set.add(vm_task(1, 10, 1, 10, /*vm=*/9, /*dev=*/0));
  Report report;
  verify_config({}, valid_experiment(), set, report);  // num_vms = 4
  EXPECT_TRUE(report.has(DiagCode::kCfgVmOutOfRange));
}

TEST(VerifyConfig, Cfg005FiresOnOutOfRangeFractions) {
  auto experiment = valid_experiment();
  experiment.target_utilization = 1.7;
  Report report;
  verify_config({}, experiment, one_config_task(), report);
  EXPECT_TRUE(report.has(DiagCode::kCfgBadFraction));

  auto negative = valid_experiment();
  negative.preload_fraction = -0.5;
  Report report2;
  verify_config({}, negative, one_config_task(), report2);
  EXPECT_TRUE(report2.has(DiagCode::kCfgBadFraction));
}

TEST(VerifyConfig, Cfg006FiresOnDegenerateExperiment) {
  auto experiment = valid_experiment();
  experiment.trials = 0;
  Report report;
  verify_config({}, experiment, one_config_task(), report);
  EXPECT_TRUE(report.has(DiagCode::kCfgDegenerateExperiment));
}

// ---- diagnostics plumbing --------------------------------------------------

TEST(Diagnostics, CodeStringsAreStable) {
  EXPECT_STREQ(code_string(DiagCode::kSigFreeCountMismatch), "SIG001");
  EXPECT_STREQ(code_string(DiagCode::kSigJobUnderAllocated), "SIG003");
  EXPECT_STREQ(code_string(DiagCode::kSupZeroSlack), "SUP004");
  EXPECT_STREQ(code_string(DiagCode::kLvlCheckSkipped), "LVL007");
  EXPECT_STREQ(code_string(DiagCode::kCfgDegenerateExperiment), "CFG006");
}

TEST(Diagnostics, SkippedChecksDefaultToInfoSeverity) {
  EXPECT_EQ(default_severity(DiagCode::kSupCheckSkipped), Severity::kInfo);
  EXPECT_EQ(default_severity(DiagCode::kLvlCheckSkipped), Severity::kInfo);
  EXPECT_EQ(default_severity(DiagCode::kSigJobUnderAllocated),
            Severity::kError);
}

TEST(Diagnostics, ReportCountsAndRenders) {
  Report report;
  report.add(DiagCode::kSigJobUnderAllocated, "job 0 holds 1 of 2 slots",
             "device 0 task 1");
  report.add(DiagCode::kSupCheckSkipped, "bound too large");
  EXPECT_EQ(report.error_count(), 1u);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(DiagCode::kSigJobUnderAllocated));
  EXPECT_EQ(std::count_if(report.diagnostics().begin(),
                          report.diagnostics().end(),
                          [](const Diagnostic& d) {
                            return d.code == DiagCode::kSigJobUnderAllocated;
                          }),
            1);

  std::ostringstream text;
  report.render_text(text);
  EXPECT_NE(text.str().find("SIG003"), std::string::npos);
  EXPECT_NE(text.str().find("device 0 task 1"), std::string::npos);

  std::ostringstream json;
  report.render_json(json);
  EXPECT_NE(json.str().find("\"SIG003\""), std::string::npos);
  EXPECT_NE(json.str().find("\"SUP007\""), std::string::npos);
}

// ---- end-to-end: the case-study artifacts verify clean ---------------------

TEST(ArtifactBuilder, CaseStudyArtifactsVerifyClean) {
  workload::CaseStudyConfig cfg;
  cfg.num_vms = 4;
  cfg.target_utilization = 0.4;
  cfg.preload_fraction = 0.7;
  cfg.seed = 42;
  const Report report = verify_case_study(cfg, /*trials=*/2, /*min_jobs=*/5);
  if (!report.ok()) {
    std::ostringstream os;
    report.render_text(os);
    ADD_FAILURE() << os.str();
  }
}

TEST(ArtifactBuilder, CorruptedCaseStudyFailsSystemVerification) {
  workload::CaseStudyConfig cfg;
  cfg.num_vms = 4;
  cfg.target_utilization = 0.4;
  cfg.preload_fraction = 0.7;
  cfg.seed = 42;
  auto a = build_experiment_artifacts(cfg, /*trials=*/2, /*min_jobs=*/5);
  // Steal one reserved slot from the first device holding any.
  for (std::size_t d = 0; d < a.tables.size(); ++d) {
    auto raw = a.tables[d].raw();
    std::size_t owned = raw.size();
    for (std::size_t i = 0; i < raw.size(); ++i)
      if (raw[i] != TimeSlotTable::kFree) {
        owned = i;
        break;
      }
    if (owned == raw.size()) continue;
    raw[owned] = TimeSlotTable::kFree;
    a.tables[d] = TimeSlotTable::from_slots(std::move(raw));
    const Report report =
        verify_system(a.platform, a.experiment, a.all, a.device_views());
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(DiagCode::kSigFreeCountMismatch) ||
                report.has(DiagCode::kSigJobUnderAllocated));
    return;
  }
  ADD_FAILURE() << "no device table held a reserved slot";
}

}  // namespace
}  // namespace ioguard::analysis
