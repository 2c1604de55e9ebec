// Cycle-accurate co-simulation demo: the wormhole mesh carries every I/O
// request/response packet for the baselines while I/O-GUARD uses its
// dedicated links -- at cycle granularity, with optional background memory
// traffic loading the interconnect.
//
//   $ ./build/examples/cycle_accurate_demo [--slots=4000] [--util=0.6]
//         [--vms=8] [--bg=0.002]
#include <iostream>

#include "common/cli.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "system/cosim.hpp"

using namespace ioguard;
using namespace ioguard::sys;

namespace {

CliSpec make_spec() {
  CliSpec spec("cycle-accurate co-simulation of all four architectures");
  spec.flag_int("slots", 4000, "simulated slots")
      .flag_double("util", 0.6, "target utilization")
      .flag_int("vms", 8, "active VMs")
      .flag_double("bg", 0.002, "background traffic in pkt/node/cycle");
  return spec;
}

Status run(const CliArgs& args) {
  const Slot slots = static_cast<Slot>(args.get_int("slots"));
  const double util = args.get_double("util");
  const auto vms = static_cast<std::size_t>(args.get_int("vms"));
  const double bg = args.get_double("bg");
  if (slots == 0) return InvalidArgumentError("--slots must be > 0");

  std::cout << "Cycle-accurate co-simulation: " << slots << " slots ("
            << slots / 100 << " ms), " << vms << " VMs, "
            << fmt_double(util * 100, 0) << "% utilization, background "
            << fmt_double(bg, 4) << " pkt/node/cycle\n\n";

  TextTable table({"system", "counted", "on time", "crit misses", "dropped",
                   "req latency p50/p99 (cy)", "resp p99 (us)",
                   "noc packets"});
  for (SystemKind kind : {SystemKind::kLegacy, SystemKind::kRtXen,
                          SystemKind::kBlueVisor, SystemKind::kIoGuard}) {
    CosimConfig cfg;
    cfg.kind = kind;
    cfg.workload.num_vms = vms;
    cfg.workload.target_utilization = util;
    cfg.workload.preload_fraction = 0.7;
    cfg.horizon_slots = slots;
    cfg.background_rate = bg;
    auto r = run_cosim(cfg);

    std::string req = "-";
    if (!r.request_latency_cycles.empty())
      req = fmt_double(r.request_latency_cycles.percentile(50), 0) + " / " +
            fmt_double(r.request_latency_cycles.percentile(99), 0);
    std::string resp = "-";
    if (!r.response_slots.empty())
      resp = fmt_double(r.response_slots.percentile(99) * 10, 0);
    table.add(std::string(to_string(kind)), r.jobs_counted, r.jobs_on_time,
              r.critical_misses, r.dropped, req, resp,
              r.noc_packets_delivered);
  }
  table.render(std::cout);
  std::cout << "\n(I/O-GUARD shows no request-latency column: its dedicated "
               "processor-hypervisor links bypass the routers entirely)\n";
  return OkStatus();
}

}  // namespace

int main(int argc, char** argv) {
  const CliSpec spec = make_spec();
  const auto args = spec.parse(argc, argv);
  if (!args.ok()) {
    std::cerr << "error: " << args.status() << "\n\n"
              << spec.help_text(argc > 0 ? argv[0] : "cycle_accurate_demo");
    return exit_code(args.status());
  }
  if (args->help_requested()) {
    std::cout << spec.help_text(args->program());
    return 0;
  }
  const Status status = run(*args);
  if (!status.ok()) std::cerr << "error: " << status << "\n";
  return exit_code(status);
}
