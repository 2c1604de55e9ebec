// ioguard_admitd -- JSON-lines admission-control daemon (ISSUE-9).
//
// Long-lived front-end of service::AdmissionEngine: reads one JSON request
// per line from stdin, answers one JSON decision (or error) per line on
// stdout, and never crashes on malformed input -- a bad line yields an
// {"ok":false,...} diagnostic and the loop continues, mirroring the tools'
// exit-code contract (kDataLoss / kInvalidArgument) per request instead of
// per process. EOF ends the session with exit 0.
//
//   $ printf '%s\n' '{"op":"admit","tenant":"t0","vm":"vm0",
//     "tasks":[{"id":1,"period":100,"wcet":5}]}' '{"op":"stats"}' |
//     ioguard_admitd --hyperperiod=1000 --busy-every=4
//
// Two table sources:
//   * synthetic (default): an H-slot table with every Nth slot reserved for
//     the P-channel (--hyperperiod, --busy-every);
//   * --case-study: the automotive case study's busiest device, built from
//     the same artifacts as ioguard_cli / ioguard_verify. Workload knobs
//     (--vms/--util/--preload/--seed) go through sys::TrialConfig::validated,
//     the single validated construction path for experiment configs.
//
// Blank lines and lines starting with '#' are ignored, so request scripts
// can be commented.

#include <fstream>
#include <iostream>
#include <string>

#include "analysis/artifact_builder.hpp"
#include "common/cli.hpp"
#include "common/status.hpp"
#include "sched/slot_table.hpp"
#include "service/admission_engine.hpp"
#include "service/admission_json.hpp"
#include "system/runner.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"

namespace {

using ioguard::Slot;
using ioguard::Status;
using ioguard::StatusOr;
using ioguard::TaskId;

/// Builds the synthetic serving table: `hyperperiod` slots with every
/// `busy_every`-th slot reserved (0 = fully free).
StatusOr<ioguard::sched::TimeSlotTable> synthetic_table(
    std::int64_t hyperperiod, std::int64_t busy_every) {
  if (hyperperiod <= 0)
    return ioguard::InvalidArgumentError("--hyperperiod must be positive");
  if (busy_every < 0)
    return ioguard::InvalidArgumentError("--busy-every must be >= 0");
  ioguard::sched::TimeSlotTable table(static_cast<Slot>(hyperperiod));
  if (busy_every > 0)
    for (Slot s = 0; s < table.hyperperiod();
         s += static_cast<Slot>(busy_every))
      table.reserve(s, TaskId{0});
  return table;
}

/// Builds the case-study serving table: validates the workload knobs through
/// sys::TrialConfig::validated (the same path ioguard_cli and the benches
/// use), then serves the busiest device of the resulting artifacts.
StatusOr<ioguard::sched::TimeSlotTable> case_study_table(
    const ioguard::CliArgs& args) {
  ioguard::sys::TrialConfig raw;
  raw.workload.num_vms = static_cast<std::size_t>(args.get_int("vms"));
  raw.workload.target_utilization = args.get_double("util");
  raw.workload.preload_fraction = args.get_double("preload");
  raw.workload.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  IOGUARD_ASSIGN_OR_RETURN(const ioguard::sys::TrialConfig cfg,
                           ioguard::sys::TrialConfig::validated(raw));

  const auto artifacts =
      ioguard::analysis::build_experiment_artifacts(cfg.workload);
  if (artifacts.tables.empty())
    return ioguard::FailedPreconditionError(
        "case-study artifacts contain no device tables");
  std::size_t busiest = 0;
  for (std::size_t d = 1; d < artifacts.tables.size(); ++d) {
    const auto used = [&artifacts](std::size_t i) {
      return artifacts.tables[i].hyperperiod() -
             artifacts.tables[i].free_slots();
    };
    if (used(d) > used(busiest)) busiest = d;
  }
  return artifacts.tables[busiest];
}

Status run(const ioguard::CliArgs& args) {
  StatusOr<ioguard::sched::TimeSlotTable> table =
      args.get_bool("case-study")
          ? case_study_table(args)
          : synthetic_table(args.get_int("hyperperiod"),
                            args.get_int("busy-every"));
  IOGUARD_RETURN_IF_ERROR(table.status());

  ioguard::service::AdmissionEngineConfig config;
  config.memoize = !args.get_bool("no-memoize");
  ioguard::service::AdmissionEngine engine(*std::move(table), config);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto wire = ioguard::service::decode_request(line);
    if (!wire.ok()) {
      std::cout << ioguard::service::encode_error(wire.status()) << "\n"
                << std::flush;
      continue;
    }
    if (wire->stats) {
      std::cout << ioguard::service::encode_counters(engine.counters(),
                                                     engine.fleet_size(),
                                                     engine.fleet_fingerprint())
                << "\n"
                << std::flush;
      continue;
    }
    const auto decision = engine.handle(wire->request);
    std::cout << (decision.ok()
                      ? ioguard::service::encode_decision(*decision)
                      : ioguard::service::encode_error(decision.status()))
              << "\n"
              << std::flush;
  }

  const std::string metrics_out = args.get("metrics-out");
  if (!metrics_out.empty()) {
    ioguard::telemetry::MetricsRegistry registry;
    engine.export_metrics(registry);
    // Written in place, not through a temp file and a rename: the target
    // may be a device such as /dev/stdout.
    std::ofstream os(metrics_out);
    if (!os)
      return ioguard::UnavailableError("cannot open --metrics-out file " +
                                       metrics_out);
    ioguard::telemetry::write_prometheus(os, registry);
    if (!os.flush())
      return ioguard::UnavailableError("cannot write --metrics-out file " +
                                       metrics_out);
  }
  return ioguard::OkStatus();
}

}  // namespace

int main(int argc, char** argv) {
  ioguard::CliSpec spec(
      "JSON-lines admission-control daemon (one request per stdin line, one "
      "decision per stdout line)");
  spec.flag_int("hyperperiod", 1000, "synthetic table size in slots")
      .flag_int("busy-every", 4,
                "reserve every Nth slot for the P-channel (0 = all free)")
      .flag_switch("case-study",
                   "serve the case study's busiest device table instead of "
                   "the synthetic one")
      .flag_int("vms", 4, "case-study: active VMs")
      .flag_double("util", 0.4, "case-study: target device utilization")
      .flag_double("preload", 0.0, "case-study: preloaded task fraction")
      .flag_int("seed", 1, "case-study: workload seed")
      .flag_switch("no-memoize",
                   "full re-analysis on every request (reference mode)")
      .flag("metrics-out", "",
            "write Prometheus engine counters to this file at EOF");

  const auto args = spec.parse(argc, argv);
  if (!args.ok()) {
    std::cerr << "ioguard_admitd: " << args.status() << "\n";
    return 2;
  }
  if (args->help_requested()) {
    std::cout << spec.help_text(args->program());
    return 0;
  }
  const Status status = run(*args);
  if (!status.ok()) std::cerr << "ioguard_admitd: " << status << "\n";
  return ioguard::exit_code(status);
}
