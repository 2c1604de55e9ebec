#include "analysis/artifact_builder.hpp"

#include <utility>

#include "analysis/verify_service.hpp"
#include "core/hypervisor.hpp"
#include "sched/server_design.hpp"

namespace ioguard::analysis {

std::vector<DeviceArtifacts> ExperimentArtifacts::device_views() const {
  std::vector<DeviceArtifacts> views;
  views.reserve(tables.size());
  for (std::size_t d = 0; d < tables.size(); ++d)
    views.push_back(DeviceArtifacts{&tables[d], &predefined[d], &servers[d],
                                    &vm_tasks[d]});
  return views;
}

ExperimentArtifacts build_experiment_artifacts(
    const workload::CaseStudyConfig& cfg, std::size_t trials,
    std::size_t min_jobs, Slot dispatch_overhead_slots) {
  const auto wl = workload::build_case_study(cfg);
  ExperimentArtifacts a;
  a.all = wl.tasks;
  a.experiment.num_vms = cfg.num_vms;
  a.experiment.target_utilization = cfg.target_utilization;
  a.experiment.preload_fraction = cfg.preload_fraction;
  a.experiment.trials = trials;
  a.experiment.min_jobs_per_task = min_jobs;
  a.platform.device_count = workload::kCaseStudyDeviceCount;

  for (std::size_t d = 0; d < workload::kCaseStudyDeviceCount; ++d) {
    const DeviceId dev{static_cast<std::uint32_t>(d)};
    core::DevicePlan plan =
        core::plan_device(wl, dev, cfg.num_vms, dispatch_overhead_slots);
    const sched::TableSupply supply(plan.table);
    auto design = sched::design_system(supply, plan.vm_tasks);
    std::vector<sched::ServerParams> servers;
    if (design.feasible || !design.servers.empty()) {
      // Hand even an infeasible design to the verifier: its job is to
      // report *why* the artifacts are unsound, not to hide them.
      servers = design.servers;
    } else {
      servers.assign(cfg.num_vms, sched::ServerParams{1, 0});
    }

    a.predefined.push_back(std::move(plan.predefined));
    a.tables.push_back(std::move(plan.table));
    a.servers.push_back(std::move(servers));
    a.vm_tasks.push_back(std::move(plan.vm_tasks));
  }
  return a;
}

Report verify_case_study(const workload::CaseStudyConfig& cfg,
                         std::size_t trials, std::size_t min_jobs) {
  const auto a = build_experiment_artifacts(cfg, trials, min_jobs);
  Report report =
      verify_system(a.platform, a.experiment, a.all, a.device_views());
  // Admission-service coherence (ADMxxx) on every device's VM task sets:
  // the same artifacts, churned through the incremental engine.
  for (std::size_t d = 0; d < a.tables.size(); ++d)
    verify_service(a.tables[d], a.vm_tasks[d], ServiceCheckOptions{}, report);
  return report;
}

}  // namespace ioguard::analysis
