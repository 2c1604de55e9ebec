// Walkthrough of the Sec. IV analysis on a concrete device: builds the Time
// Slot Table for the pre-defined tasks, admits each VM through the
// service::AdmissionEngine façade (which synthesizes per-VM servers and runs
// Theorems 2 + 4), re-runs the exhaustive theorems for agreement, and
// cross-checks the verdict against a reference P-EDF simulation on the
// table's free slots, and reports how much margin each admitted VM has left.
//
//   $ ./build/examples/admission_analysis
#include <iostream>
#include <map>
#include <string>

#include "common/cli.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "sched/admission.hpp"
#include "sched/edf_ref.hpp"
#include "sched/sensitivity.hpp"
#include "sched/slot_table.hpp"
#include "service/admission_engine.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"

using namespace ioguard;
using namespace ioguard::sched;

namespace {

Status run() {
  std::cout << "Two-layer schedulability analysis walkthrough\n"
            << "=============================================\n\n";

  // The case-study workload's CAN device at 70% utilization, 40% preloaded.
  workload::CaseStudyConfig wcfg;
  wcfg.num_vms = 4;
  wcfg.target_utilization = 0.7;
  wcfg.preload_fraction = 0.4;
  const auto wl = workload::build_case_study(wcfg);
  const DeviceId dev = workload::device_id(workload::CaseStudyDevice::kCan);

  const auto predefined = wl.predefined().filter_device(dev);
  const auto runtime = wl.runtime().filter_device(dev);
  std::cout << "CAN device: " << predefined.size() << " pre-defined + "
            << runtime.size() << " run-time tasks, utilization "
            << fmt_double(predefined.utilization(), 3) << " + "
            << fmt_double(runtime.utilization(), 3) << "\n\n";

  // 1. P-channel: offline slot-EDF placement into sigma*.
  const auto build = build_time_slot_table(predefined);
  if (!build.feasible)
    return FailedPreconditionError("slot table infeasible: " + build.failure);
  TableSupply supply(build.table);
  std::cout << "sigma*: H = " << supply.hyperperiod()
            << " slots, F = " << supply.free_per_period() << " free (bandwidth "
            << fmt_double(supply.bandwidth(), 3) << ")\n";
  std::cout << "sbf(sigma, t) samples: ";
  for (Slot t : {10u, 100u, 1000u, 10000u})
    std::cout << "sbf(" << t << ")=" << supply.sbf(t) << "  ";
  std::cout << "\n\n";

  // 2. Admit each VM through the service façade: the engine synthesizes a
  //    G-Sched server (Theorem 4) and re-checks the fleet (Theorem 2) on
  //    every request, exactly as the long-lived daemon would.
  service::AdmissionEngine engine(build.table,
                                  service::AdmissionEngineConfig{});
  bool all_applied = true;
  std::map<std::string, workload::TaskSet> vm_tasks;
  for (std::uint32_t v = 0; v < wcfg.num_vms; ++v) {
    const auto vm_set = runtime.filter_vm(VmId{v});
    if (vm_set.empty()) continue;
    service::AdmissionRequest req;
    req.op = service::RequestOp::kAdmit;
    req.tenant = "can";
    req.vm = "vm" + std::to_string(v);
    req.tasks = vm_set;
    vm_tasks[req.vm] = vm_set;
    IOGUARD_ASSIGN_OR_RETURN(const auto decision, engine.handle(req));
    if (!decision.applied) all_applied = false;
  }

  service::AdmissionRequest query;
  query.op = service::RequestOp::kQuery;
  IOGUARD_ASSIGN_OR_RETURN(const auto fleet, engine.handle(query));

  TextTable servers({"VM", "tasks", "util", "Pi", "Theta", "bandwidth",
                     "Theorem 4"});
  for (const auto& v : fleet.per_vm)
    servers.add(v.vm, v.task_count, fmt_double(v.utilization, 3), v.server.pi,
                v.server.theta, fmt_double(v.server.bandwidth(), 3),
                std::string(v.local.schedulable ? "pass" : "fail"));
  servers.render(std::cout);
  const bool feasible = all_applied && fleet.admitted;
  std::cout << "system admission (service facade): "
            << (feasible ? "SCHEDULABLE"
                         : "REJECTED (" + fleet.reason + ")")
            << "  [fleet fingerprint 0x" << std::hex << fleet.fleet_fingerprint
            << std::dec << "]\n\n";

  // 3. Exhaustive vs pseudo-polynomial agreement on the global layer.
  std::vector<ServerParams> active;
  for (const auto& v : fleet.per_vm)
    if (v.server.theta > 0) active.push_back(v.server);
  const auto t1 = theorem1_exhaustive(supply, active);
  const auto t2 = theorem2_check(supply, active);
  std::cout << "Theorem 1 (exhaustive, checked to t<" << t1.checked_until
            << "): " << (t1 ? "pass" : "fail") << '\n'
            << "Theorem 2 (pseudo-poly, checked to t<" << t2.checked_until
            << "): " << (t2 ? "pass" : "fail") << "\n\n";

  // 4. Margins: the smallest budget each VM needs at its Pi, the tightest
  //    instant's spare slots, and how far its WCETs could grow before
  //    Theorem 4 fails ("-" where the VM has no margin to measure).
  const auto cell = [](const auto& value) {
    return value.ok() ? std::to_string(*value) : std::string("-");
  };
  TextTable margins({"VM", "Theta", "min Theta", "min slack", "WCET scale"});
  for (const auto& v : fleet.per_vm) {
    const auto it = vm_tasks.find(v.vm);
    if (it == vm_tasks.end() || v.server.theta == 0) continue;
    const auto alpha = breakdown_factor(v.server, it->second);
    margins.add(v.vm, v.server.theta,
                cell(min_required_theta(v.server, it->second)),
                cell(min_slack(v.server, it->second)),
                alpha.ok() ? fmt_double(*alpha, 3) : std::string("-"));
  }
  margins.render(std::cout);
  std::cout << "global min slack over the Theorem 2 window: "
            << cell(global_min_slack(supply, active)) << " slots\n\n";

  // 5. Empirical cross-check: P-EDF of all runtime tasks on the free slots.
  workload::ArrivalConfig acfg;
  acfg.horizon = 200000;
  acfg.jitter_frac = 0.0;
  acfg.exec_frac_lo = acfg.exec_frac_hi = 1.0;
  const auto trace = workload::generate_trace(runtime, acfg);
  const auto sim = simulate_edf(
      trace, [&](Slot s) { return build.table.is_free_abs(s); }, acfg.horizon);
  std::cout << "reference P-EDF on free slots: " << trace.size() << " jobs, "
            << sim.misses << " misses over " << acfg.horizon << " slots\n";
  if (feasible && sim.misses == 0)
    std::cout << "analysis and execution agree: admitted and no misses.\n";
  return OkStatus();
}

}  // namespace

int main(int argc, char** argv) {
  CliSpec spec("walk through the Sec. IV two-layer admission analysis");
  const auto args = spec.parse(argc, argv);
  if (!args.ok()) {
    std::cerr << "error: " << args.status() << "\n\n"
              << spec.help_text(argc > 0 ? argv[0] : "admission_analysis");
    return exit_code(args.status());
  }
  if (args->help_requested()) {
    std::cout << spec.help_text(args->program());
    return 0;
  }
  const Status status = run();
  if (!status.ok()) std::cerr << "error: " << status << "\n";
  return exit_code(status);
}
