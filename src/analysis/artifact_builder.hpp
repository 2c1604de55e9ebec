// Builds the scheduling artifacts of a case-study experiment from the device
// plans core::Hypervisor designs from at system initialization
// (core::plan_device: the offline Time Slot Table, with demotion of
// unplaceable pre-defined tasks to the R-channel, and the per-VM task sets)
// plus per-VM server synthesis, but as plain owned data, so the verifier can
// inspect (and fault-injection can tamper with) every piece.
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/verifier.hpp"
#include "sched/slot_table.hpp"
#include "workload/generator.hpp"

namespace ioguard::analysis {

/// All scheduling artifacts of one experiment, owned flat.
struct ExperimentArtifacts {
  workload::TaskSet all;
  std::vector<workload::TaskSet> predefined;              ///< per device
  std::vector<sched::TimeSlotTable> tables;               ///< per device
  std::vector<std::vector<sched::ServerParams>> servers;  ///< per device, VM
  std::vector<std::vector<workload::TaskSet>> vm_tasks;   ///< per device, VM
  PlatformSpec platform;
  ExperimentSpec experiment;

  /// Borrowing views for verify_system().
  [[nodiscard]] std::vector<DeviceArtifacts> device_views() const;
};

/// Derives every device's artifacts for `cfg`. `trials`/`min_jobs` only fill
/// the ExperimentSpec under CFG verification; they do not affect the build.
/// `dispatch_overhead_slots` is charged onto every R-channel task's WCET by
/// core::plan_device (Calibration::dispatch_overhead_slots).
[[nodiscard]] ExperimentArtifacts build_experiment_artifacts(
    const workload::CaseStudyConfig& cfg, std::size_t trials = 1,
    std::size_t min_jobs = 1, Slot dispatch_overhead_slots = 1);

/// Convenience: builds the artifacts and verifies everything.
[[nodiscard]] Report verify_case_study(const workload::CaseStudyConfig& cfg,
                                       std::size_t trials = 1,
                                       std::size_t min_jobs = 1);

}  // namespace ioguard::analysis
