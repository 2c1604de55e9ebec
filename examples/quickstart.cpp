// Quickstart: build an I/O-GUARD hypervisor for a small workload, submit
// run-time I/O jobs, and watch the two-layer scheduler execute them.
//
//   $ ./build/examples/quickstart
//
// A short tour of the public API:
//   1. describe I/O tasks (workload::TaskSet / CaseStudyWorkload),
//   2. let the design layer build the Time Slot Table and periodic servers,
//   3. run the slot-level hypervisor and collect completions.
// Batches over worker threads, checkpoints and the telemetry artifacts are
// ioguard_cli's: --jobs, --checkpoint/--resume, --telemetry-out,
// --flight-recorder and --profile.
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "core/hypervisor.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"

using namespace ioguard;

namespace {

void run() {
  std::cout << "I/O-GUARD quickstart\n====================\n\n";

  // 1. A small automotive workload: 4 VMs, 60% target utilization per
  //    device, 40% of tasks pre-loaded into the P-channel.
  workload::CaseStudyConfig wcfg;
  wcfg.num_vms = 4;
  wcfg.target_utilization = 0.6;
  wcfg.preload_fraction = 0.4;
  wcfg.seed = 1;
  const auto wl = workload::build_case_study(wcfg);

  std::cout << "workload: " << wl.tasks.size() << " I/O tasks ("
            << wl.predefined().size() << " pre-defined, "
            << wl.runtime().size() << " run-time), utilization "
            << fmt_double(wl.tasks.utilization(), 2) << " across "
            << wl.tasks.devices().size() << " devices\n\n";

  // 2. Build the hypervisor: per device this constructs the Time Slot Table
  //    (offline slot-EDF) and synthesizes periodic servers via Theorems 2/4.
  core::HypervisorConfig hcfg;
  hcfg.num_vms = wcfg.num_vms;
  core::Hypervisor hyp(wl, hcfg);

  TextTable design({"device", "H", "F", "table", "servers (Pi,Theta)"});
  for (const auto& d : hyp.designs()) {
    std::string servers;
    for (const auto& s : d.servers) {
      if (!servers.empty()) servers += " ";
      servers.append("(").append(std::to_string(s.pi)).append(",")
          .append(std::to_string(s.theta)).append(")");
    }
    design.add(std::string(d.spec.name), d.hyperperiod, d.free_slots,
               std::string(d.table_feasible && d.servers_feasible ? "admitted"
                                                                  : "fallback"),
               servers);
  }
  design.render(std::cout);
  std::cout << "fully admitted: " << (hyp.fully_admitted() ? "yes" : "no")
            << "\n\n";

  // 3. Drive it: release the run-time jobs of the first 50 ms and tick the
  //    hypervisor slot by slot (1 slot = 10 us).
  workload::ArrivalConfig acfg;
  acfg.horizon = 5000;
  acfg.seed = 7;
  const auto trace = workload::generate_trace(wl.runtime(), acfg);

  std::vector<iodev::Completion> completions;
  std::size_t next = 0;
  std::size_t submitted = 0;
  for (Slot now = 0; now < acfg.horizon; ++now) {
    while (next < trace.size() && trace[next].release <= now) {
      if (hyp.submit(trace[next], now)) ++submitted;
      ++next;
    }
    hyp.tick_slot(now, completions);
  }

  std::size_t on_time = 0;
  for (const auto& c : completions)
    if (!c.missed()) ++on_time;

  std::cout << "submitted " << submitted << " run-time jobs; "
            << completions.size() << " completions (P+R channel), " << on_time
            << " on time, " << completions.size() - on_time << " late, "
            << hyp.dropped_jobs() << " dropped\n";

  const auto& eth = hyp.manager(DeviceId{0});
  std::cout << "ethernet manager: " << eth.busy_slots() << " busy slots, "
            << eth.runtime_jobs_completed() << " R-channel jobs, "
            << eth.pchannel().jobs_completed() << " P-channel jobs\n";
}

}  // namespace

int main(int argc, char** argv) {
  const CliSpec spec("end-to-end tour of the public API on a small workload");
  const auto args = spec.parse(argc, argv);
  if (!args.ok()) {
    std::cerr << "error: " << args.status() << "\n\n"
              << spec.help_text(argc > 0 ? argv[0] : "quickstart");
    return exit_code(args.status());
  }
  if (args->help_requested()) {
    std::cout << spec.help_text(args->program());
    return 0;
  }
  run();
  return 0;
}
