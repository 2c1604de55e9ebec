// Command-line trial driver: run any of the four architectures on the
// automotive case-study workload with one command.
//
//   $ ./build/examples/ioguard_cli --system=ioguard --vms=8 --util=0.9
//         --preload=0.7 --trials=10 --seed=1 --jobs=4
//         [--faults=device-stall] [--export-tasks=tasks.csv]
//         [--checkpoint=ck.bin [--resume]] [--trial-timeout=SECONDS]
//
// Systems: legacy | rtxen | bv | ioguard.
//
// Exit codes: 0 success, 1 errors, 2 usage, 3 interrupted after a graceful
// drain (re-run with --checkpoint=... --resume to continue).
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "analysis/artifact_builder.hpp"
#include "analysis/verify_checkpoint.hpp"
#include "analysis/verify_config.hpp"
#include "analysis/verify_resilience.hpp"
#include "common/atomic_file.hpp"
#include "common/checksum.hpp"
#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/interrupt.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "core/mode_controller.hpp"
#include "system/checkpoint.hpp"
#include "system/experiment.hpp"
#include "telemetry/perfetto.hpp"
#include "telemetry/prometheus.hpp"
#include "workload/trace_io.hpp"

using namespace ioguard;
using namespace ioguard::sys;

namespace {

StatusOr<SystemKind> parse_system(const std::string& name) {
  if (name == "legacy") return SystemKind::kLegacy;
  if (name == "rtxen") return SystemKind::kRtXen;
  if (name == "bv") return SystemKind::kBlueVisor;
  if (name == "ioguard") return SystemKind::kIoGuard;
  return InvalidArgumentError("unknown system '" + name +
                              "' (expected legacy|rtxen|bv|ioguard)");
}

/// --mode-switch spec: "off" | "on" | "on:THRESHOLD:HYSTERESIS:FACTOR
/// [:PROPAGATION]". "on" alone takes every ModeSwitchConfig default;
/// numeric range checks stay in TrialConfig::validated (the single
/// validated construction path), this only rejects malformed syntax.
StatusOr<core::ModeSwitchConfig> parse_mode_switch(const std::string& spec) {
  core::ModeSwitchConfig cfg;
  if (spec == "off") return cfg;

  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  const Status bad = InvalidArgumentError(
      "--mode-switch expects off, on, or "
      "on:THRESHOLD:HYSTERESIS:FACTOR[:PROPAGATION], got '" + spec + "'");
  if (parts[0] != "on") return bad;
  cfg.enabled = true;
  if (parts.size() == 1) return cfg;
  if (parts.size() != 4 && parts.size() != 5) return bad;

  const auto as_u64 = [&](const std::string& s,
                          std::uint64_t& out) -> bool {
    if (s.empty()) return false;
    char* end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    return end != nullptr && *end == '\0';
  };
  std::uint64_t threshold = 0;
  std::uint64_t hysteresis = 0;
  if (!as_u64(parts[1], threshold) || !as_u64(parts[2], hysteresis))
    return bad;
  char* end = nullptr;
  const double factor = std::strtod(parts[3].c_str(), &end);
  if (parts[3].empty() || end == nullptr || *end != '\0') return bad;
  cfg.overrun_threshold = static_cast<std::uint32_t>(threshold);
  cfg.recovery_hysteresis_slots = static_cast<Slot>(hysteresis);
  cfg.hi_budget_factor = factor;
  if (parts.size() == 5) {
    std::uint64_t propagation = 0;
    if (!as_u64(parts[4], propagation)) return bad;
    cfg.propagation_threshold = static_cast<std::size_t>(propagation);
  }
  return cfg;
}

CliSpec make_spec() {
  CliSpec spec("run case-study trials of one architecture");
  spec.flag("system", "ioguard", "architecture: legacy|rtxen|bv|ioguard")
      .flag_int("vms", 8, "active VMs")
      .flag_double("util", 0.9, "target utilization")
      .flag_double("preload", 0.7, "P-channel fraction (ioguard only)")
      .flag_int("trials", 10, "repetitions")
      .flag_int("min-jobs", 25, "jobs per task")
      .flag_int("seed", 42, "base seed")
      .flag_int("jobs", 0,
                "worker threads; 0 = auto (IOGUARD_JOBS env or cores); "
                "results are identical for any value (1 = sequential)")
      .flag("faults", "none",
            "fault plan: a canned name (none|device-stall|lossy-frames|"
            "noc-flaky|translator-jitter|mixed) or a spec like "
            "\"stall:rate=0.002,param=12;flit:rate=0.001\"")
      .flag_switch("criticality",
                   "mixed-criticality workload: safety tasks carry HI "
                   "budgets (C_hi >= C_lo); everything else is LO and "
                   "sheddable under HI mode")
      .flag("mode-switch", "off",
            "LO->HI mode switching (ioguard only, needs --criticality): "
            "off | on | on:THRESHOLD:HYSTERESIS:FACTOR[:PROPAGATION], e.g. "
            "on:1:500:1.5 -- pair with --faults=translator-jitter to "
            "produce the overrun evidence that triggers switches")
      .flag("checkpoint", "",
            "journal every finished trial to this file (crash-safe; see "
            "--resume); SIGINT/SIGTERM drain gracefully and exit 3")
      .flag_switch("resume",
                   "restore finished trials from --checkpoint instead of "
                   "re-running them; merged results are byte-identical to "
                   "an uninterrupted run")
      .flag_double("trial-timeout", 0.0,
                   "soft per-trial deadline in seconds; slower trials are "
                   "flagged as wedged (0 = off)")
      .flag_int("crash-after", 0,
                "test hook: simulate a hard crash (exit 70) after N "
                "checkpoint records have been appended (0 = off)")
      .flag("export-tasks", "", "dump the task set CSV to this file")
      .flag("telemetry-out", "",
            "write trace.perfetto.json (trial 0), metrics.prom (all trials) "
            "and summary.json to this directory")
      .flag("flight-recorder", "",
            "on every deadline miss / fault recovery, dump the last trace "
            "events + scheduler state to per-trial files in this directory "
            "(ioguard only; bounded per trial)")
      .flag_switch("profile",
                   "attribute every slot of every component to "
                   "busy/stall/quiescent (printed for trial 0; exported "
                   "with --telemetry-out)")
      .flag_switch("verify",
                   "statically verify the scheduling artifacts (and any "
                   "fault plan / checkpoint) first; refuse to run on errors")
      .flag_switch("stepped",
                   "run the slot-stepped reference loop instead of the "
                   "event-driven advance (bit-identical results; also "
                   "IOGUARD_STEPPED=1)");
  return spec;
}

Status run(const CliArgs& args) {
  IOGUARD_ASSIGN_OR_RETURN(const SystemKind kind,
                           parse_system(args.get("system")));
  const auto vms = static_cast<std::size_t>(args.get_int("vms"));
  const double util = args.get_double("util");
  const double preload =
      kind == SystemKind::kIoGuard ? args.get_double("preload") : 0.0;
  const auto trials = static_cast<std::size_t>(args.get_int("trials"));
  const auto min_jobs = static_cast<std::size_t>(args.get_int("min-jobs"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const auto jobs = static_cast<std::size_t>(args.get_int("jobs"));
  // Execution mode is NOT part of the checkpoint fingerprint: both loops are
  // bit-identical, so a stepped-written journal resumes cleanly event-driven
  // (and vice versa) -- CI exercises exactly that.
  const bool stepped =
      args.get_bool("stepped") || env_int("IOGUARD_STEPPED", 0) != 0;
  IOGUARD_ASSIGN_OR_RETURN(const faults::FaultPlan plan,
                           faults::FaultPlan::parse(args.get("faults")));
  const faults::ResilienceConfig resilience;
  const bool criticality = args.get_bool("criticality");
  IOGUARD_ASSIGN_OR_RETURN(const core::ModeSwitchConfig mode_cfg,
                           parse_mode_switch(args.get("mode-switch")));
  if (mode_cfg.enabled && kind != SystemKind::kIoGuard)
    return InvalidArgumentError(
        "--mode-switch requires --system=ioguard (the controller hangs off "
        "the hypervisor's G-Sched and translator overrun sites)");
  if (mode_cfg.enabled && !criticality)
    return InvalidArgumentError(
        "--mode-switch requires --criticality: with a single-criticality "
        "workload every task is LO, so a switch would shed the safety tasks "
        "it is meant to protect");

  const std::string checkpoint_path = args.get("checkpoint");
  const bool resume = args.get_bool("resume");
  if (resume && checkpoint_path.empty())
    return InvalidArgumentError("--resume requires --checkpoint=PATH");
  const double trial_timeout = args.get_double("trial-timeout");
  if (trial_timeout < 0.0)
    return OutOfRangeError("--trial-timeout must be >= 0");
  const auto crash_after =
      static_cast<std::size_t>(args.get_int("crash-after"));
  if (crash_after > 0 && checkpoint_path.empty())
    return InvalidArgumentError("--crash-after requires --checkpoint=PATH");

  // The canonical config string fingerprints the checkpoint: resuming with
  // different flags is refused (CKP002). --jobs is deliberately excluded --
  // resuming at a different fan-out width is supported and bit-identical.
  const std::string canonical =
      point_config_string(kind, vms, util, preload, trials, min_jobs, seed,
                          plan, resilience, criticality, mode_cfg);
  const std::uint64_t fingerprint = fnv1a64(canonical);

  // Trial t's seed, shared with the batch experiment drivers: depends only
  // on (base seed, sweep point, t), never on jobs or execution order.
  const auto seed_of = [&](std::size_t t) {
    return mix_seed(seed, sweep_point_key(vms, util), t);
  };

  ParallelRunner runner(jobs);
  std::cout << "system=" << to_string(kind) << " vms=" << vms
            << " util=" << fmt_double(util, 2) << " preload="
            << fmt_double(preload, 2) << " trials=" << trials
            << " jobs=" << runner.jobs();
  if (!plan.empty()) std::cout << " faults=" << plan.spec_string();
  if (criticality) std::cout << " criticality=1";
  if (mode_cfg.enabled)
    std::cout << " mode-switch=on:" << mode_cfg.overrun_threshold << ":"
              << mode_cfg.recovery_hysteresis_slots << ":"
              << fmt_double(mode_cfg.hi_budget_factor, 2) << ":"
              << mode_cfg.propagation_threshold;
  if (!checkpoint_path.empty())
    std::cout << " checkpoint=" << checkpoint_path
              << (resume ? " (resume)" : "");
  std::cout << "\n\n";

  if (args.get_bool("verify")) {
    // Static preflight (ioguard-verify): refuse to burn trial time on
    // artifacts the admission theorems cannot vouch for.
    workload::CaseStudyConfig vcfg;
    vcfg.num_vms = vms;
    vcfg.target_utilization = util;
    vcfg.preload_fraction = preload;
    vcfg.mixed_criticality = criticality;
    vcfg = seed_trial(kind, vcfg, seed_of(0)).workload;  // trial 0's
    analysis::Report report;
    if (kind == SystemKind::kIoGuard) {
      report = analysis::verify_case_study(vcfg, trials, min_jobs);
    } else {
      // The baselines build no Time Slot Table and no servers, so there is
      // no admission to verify: only the platform, the knobs and the tasks.
      analysis::PlatformSpec platform;
      platform.device_count = workload::kCaseStudyDeviceCount;
      const analysis::ExperimentSpec experiment{
          vcfg.num_vms, vcfg.target_utilization, vcfg.preload_fraction,
          trials, min_jobs};
      analysis::verify_config(platform, experiment,
                              workload::build_case_study(vcfg).tasks, report);
    }
    analysis::verify_resilience(plan, resilience, report);
    if (resume) {
      // CKP001-CKP004: the checkpoint pair must be consistent and match
      // this configuration before we trust a single restored trial.
      analysis::verify_checkpoint(inspect_checkpoint(checkpoint_path),
                                  fingerprint, report);
    }
    if (!report.ok()) {
      report.render_text(std::cerr);
      return FailedPreconditionError("artifact verification failed");
    }
    std::cout << "artifacts verified (" << report.diagnostics().size()
              << " informational finding(s))\n\n";
  }

  std::unique_ptr<CheckpointJournal> journal;
  if (!checkpoint_path.empty()) {
    CheckpointMeta meta;
    meta.fingerprint = fingerprint;
    meta.planned_trials = trials;
    meta.config_echo = canonical;
    IOGUARD_ASSIGN_OR_RETURN(
        journal, CheckpointJournal::open(checkpoint_path, meta, resume));
    journal->set_crash_after(crash_after);
    if (resume)
      std::cout << "resuming: " << journal->loaded()
                << " journaled trial record(s)"
                << (journal->truncated_tail()
                        ? " (dropped a truncated tail frame)"
                        : "")
                << "\n\n";
  }

  // Telemetry sinks (only populated with --telemetry-out): the registry
  // aggregates counters across all trials; the event trace and the summary
  // cover trial 0.
  const bool telemetry_on = !args.get("telemetry-out").empty();
  const std::filesystem::path telemetry_dir = args.get("telemetry-out");
  if (telemetry_on) {
    // Preflight the output directory so a bad path fails before the trials
    // run, not after.
    std::error_code ec;
    std::filesystem::create_directories(telemetry_dir, ec);
    if (ec)
      return UnavailableError("--telemetry-out=" + telemetry_dir.string() +
                              ": " + ec.message());
  }
  core::EventTrace events(1 << 20);
  telemetry::MetricsRegistry metrics;

  // Flight recorder: preflight the dump directory the same way, so an
  // unwritable path is a usage error (exit 2) before any trial runs.
  const bool profile_on = args.get_bool("profile");
  const std::string flight_dir = args.get("flight-recorder");
  if (!flight_dir.empty()) {
    if (kind != SystemKind::kIoGuard)
      return InvalidArgumentError(
          "--flight-recorder requires --system=ioguard (the recorder hangs "
          "off the hypervisor's trace ring)");
    std::error_code ec;
    std::filesystem::create_directories(flight_dir, ec);
    if (ec)
      return UnavailableError("--flight-recorder=" + flight_dir + ": " +
                              ec.message());
  }

  // Fan the trials out. The event trace and the per-trial summary cover
  // trial 0 only (one trace buffer, one attached trial); the registry is
  // merged across all trials in index order.
  const auto make_config = [&](std::size_t t) {
    TrialConfig tc;
    tc.kind = kind;
    tc.workload.num_vms = vms;
    tc.workload.target_utilization = util;
    tc.workload.preload_fraction = preload;
    tc.workload.mixed_criticality = criticality;
    tc.min_jobs_per_task = min_jobs;
    tc.trial_seed = seed_of(t);
    tc.faults = plan;
    tc.resilience = resilience;
    tc.mode_switch = mode_cfg;
    tc.stepped = stepped;
    if (telemetry_on && t == 0) {
      tc.trace = &events;
      tc.collect_response_times = true;
      tc.collect_stage_latencies = true;
    }
    // Jitter rides with telemetry on every trial: the registry merges the
    // per-trial histograms in index order, so the exported series are
    // byte-identical for any --jobs value.
    tc.collect_jitter = telemetry_on;
    tc.collect_profile = profile_on;
    if (!flight_dir.empty()) {
      tc.flight_dir = flight_dir;
      tc.flight_stem = "trial" + std::to_string(t);
    }
    return tc;
  };
  IOGUARD_ASSIGN_OR_RETURN(const TrialConfig preflight,
                           TrialConfig::validated(make_config(0)));
  (void)preflight;

  // First SIGINT/SIGTERM finishes in-flight trials, flushes the journal
  // and exits 3; nothing is lost when a checkpoint is attached.
  InterruptGuard interrupt_guard;

  SupervisionPolicy policy;
  policy.trial_timeout_seconds = trial_timeout;
  policy.stop = InterruptGuard::flag();
  policy.journal = journal.get();
  policy.point_key = checkpoint_point_key(kind, preload, vms, util);

  BatchTiming timing;
  const BatchResult batch = runner.run_supervised(
      trials, make_config, policy, telemetry_on ? &metrics : nullptr,
      &timing);
  const auto& results = batch.results;
  IOGUARD_RETURN_IF_ERROR(batch.journal_error);

  std::vector<std::string> columns = {
      "trial", "success", "counted", "crit misses", "dropped",
      "goodput Mbit/s", "busy", "admitted"};
  if (journal) columns.push_back("outcome");
  TextTable table(columns);
  std::size_t successes = 0;
  std::size_t aggregated = 0;
  double goodput = 0.0;
  std::uint64_t flight_total = 0;
  faults::FaultCounters fc;
  ModeSwitchCounters mcs;
  for (std::size_t t = 0; t < results.size(); ++t) {
    const TrialOutcome outcome = batch.outcomes[t];
    if (outcome == TrialOutcome::kAbandoned ||
        outcome == TrialOutcome::kSkipped) {
      if (journal)
        table.add(t, std::string("-"), std::string("-"), std::string("-"),
                  std::string("-"), std::string("-"), std::string("-"),
                  std::string("-"), std::string(to_string(outcome)));
      continue;
    }
    const TrialResult& r = results[t];
    ++aggregated;
    if (r.success()) ++successes;
    goodput += r.goodput_bytes_per_s * 8.0 / 1e6;
    fc.injected_total += r.faults.injected_total;
    fc.watchdog_aborts += r.faults.watchdog_aborts;
    fc.retries += r.faults.retries;
    fc.jobs_shed += r.faults.jobs_shed;
    fc.transit_drops += r.faults.transit_drops;
    mcs.switches_to_hi += r.mcs.switches_to_hi;
    mcs.recoveries += r.mcs.recoveries;
    mcs.propagated += r.mcs.propagated;
    mcs.overruns_observed += r.mcs.overruns_observed;
    mcs.lo_jobs_shed += r.mcs.lo_jobs_shed;
    mcs.lo_rejected += r.mcs.lo_rejected;
    mcs.hi_vms_at_end += r.mcs.hi_vms_at_end;
    mcs.hi_misses += r.mcs.hi_misses;
    flight_total += r.flight_dumps;
    if (journal) {
      table.add(t, std::string(r.success() ? "yes" : "NO"), r.jobs_counted,
                r.critical_misses, r.dropped,
                fmt_double(r.goodput_bytes_per_s * 8.0 / 1e6, 1),
                fmt_double(r.device_busy_frac, 3),
                std::string(r.admitted ? "yes" : "no"),
                std::string(to_string(outcome)));
    } else {
      table.add(t, std::string(r.success() ? "yes" : "NO"), r.jobs_counted,
                r.critical_misses, r.dropped,
                fmt_double(r.goodput_bytes_per_s * 8.0 / 1e6, 1),
                fmt_double(r.device_busy_frac, 3),
                std::string(r.admitted ? "yes" : "no"));
    }
  }

  if (!args.get("export-tasks").empty() && trials > 0) {
    const auto wl = workload::build_case_study(
        seed_trial(kind, make_config(0).workload, seed_of(0)).workload);
    AtomicFileWriter out(args.get("export-tasks"));
    workload::write_taskset_csv(out.stream(), wl.tasks);
    IOGUARD_RETURN_IF_ERROR(out.commit());
    std::cout << "task set written to " << args.get("export-tasks") << "\n";
  }
  table.render(std::cout);
  for (const auto& note : batch.notes) std::cout << "note: " << note << "\n";
  std::cout << "\nsuccess ratio "
            << fmt_double(aggregated > 0 ? static_cast<double>(successes) /
                                               static_cast<double>(aggregated)
                                         : 0.0,
                          2)
            << ", mean goodput "
            << fmt_double(
                   aggregated > 0 ? goodput / static_cast<double>(aggregated)
                                  : 0.0,
                   1)
            << " Mbit/s\n"
            << fmt_double(timing.trials_per_second(), 1)
            << " trials/s on " << timing.jobs << " worker(s), speedup "
            << fmt_double(timing.speedup_estimate(), 2)
            << "x over sequential\n";
  if (journal) {
    std::cout << "checkpoint: " << batch.executed() << " executed, "
              << batch.restored << " restored, " << batch.retried
              << " retried, " << batch.abandoned << " abandoned, "
              << batch.skipped << " skipped";
    if (batch.wedged > 0) std::cout << ", " << batch.wedged << " wedged";
    std::cout << "\n";
  }
  if (!plan.empty()) {
    std::cout << "faults injected " << fc.injected_total
              << ", watchdog aborts " << fc.watchdog_aborts << ", retries "
              << fc.retries << ", jobs shed " << fc.jobs_shed
              << ", transit drops " << fc.transit_drops << "\n";
  }
  if (mode_cfg.enabled) {
    std::cout << "mode switching: " << mcs.switches_to_hi << " LO->HI ("
              << mcs.propagated << " propagated), " << mcs.recoveries
              << " recoveries, " << mcs.overruns_observed
              << " overruns observed, " << mcs.lo_jobs_shed
              << " LO jobs shed, " << mcs.lo_rejected
              << " LO submissions rejected, " << mcs.hi_vms_at_end
              << " HI VM(s) at horizon, " << mcs.hi_misses
              << " HI deadline miss(es)\n";
  }
  if (!flight_dir.empty())
    std::cout << "flight recorder: " << flight_total << " dump(s) in "
              << flight_dir << "\n";
  if (profile_on && !results.empty() && !results[0].profile.empty()) {
    std::cout << "\ncycle attribution, trial 0 (slots; every component sums "
                 "to the horizon):\n";
    TextTable profile_table(
        {"component", "busy", "stall", "quiescent", "total"});
    for (const ComponentProfile& c : results[0].profile)
      profile_table.add(c.name, c.busy_slots, c.stall_slots,
                        c.quiescent_slots, c.total_slots());
    profile_table.render(std::cout);
  }

  if (batch.interrupted) {
    return CancelledError(
        "interrupted after " +
        std::to_string(trials - batch.skipped) + "/" +
        std::to_string(trials) + " trials" +
        (journal ? "; finished trials are journaled, re-run with "
                   "--checkpoint=" +
                       checkpoint_path + " --resume to continue"
                 : "; re-run with --checkpoint=PATH to make interrupts "
                   "resumable"));
  }

  if (telemetry_on) {
    const std::filesystem::path& dir = telemetry_dir;
    // All three artifacts publish atomically (temp file + rename): a crash
    // here can leave a stale staging file (CKP003) but never a torn one.
    {
      // Trial 0's cycle attribution rides along as Perfetto counter tracks.
      std::vector<telemetry::ProfileCounterTrack> counters;
      if (!results.empty()) {
        for (const ComponentProfile& c : results[0].profile)
          counters.push_back({c.name, c.busy_slots, c.stall_slots,
                              c.quiescent_slots});
      }
      AtomicFileWriter out(dir / "trace.perfetto.json");
      telemetry::write_perfetto_json(out.stream(), events, {}, counters);
      IOGUARD_RETURN_IF_ERROR(out.commit());
    }
    {
      AtomicFileWriter out(dir / "metrics.prom");
      telemetry::write_prometheus(out.stream(), metrics);
      IOGUARD_RETURN_IF_ERROR(out.commit());
    }
    if (!results.empty() &&
        batch.outcomes[0] != TrialOutcome::kAbandoned &&
        batch.outcomes[0] != TrialOutcome::kSkipped) {
      AtomicFileWriter out(dir / "summary.json");
      write_trial_summary_json(out.stream(), make_config(0), results[0]);
      IOGUARD_RETURN_IF_ERROR(out.commit());
    }
    std::cout << "telemetry written to " << dir.string()
              << "/{trace.perfetto.json, metrics.prom, summary.json}\n";
    if (events.overwritten() > 0)
      std::cout << "(ring saturated: " << events.overwritten()
                << " oldest events overwritten; the trace keeps the last "
                << events.size() << ")\n";
  }
  return OkStatus();
}

}  // namespace

int main(int argc, char** argv) {
  const CliSpec spec = make_spec();
  const auto args = spec.parse(argc, argv);
  if (!args.ok()) {
    std::cerr << "error: " << args.status() << "\n\n"
              << spec.help_text(argc > 0 ? argv[0] : "ioguard_cli");
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
