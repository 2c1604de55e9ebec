#include "bench_json.hpp"

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/appender.hpp"
#include "common/atomic_file.hpp"
#include "common/checksum.hpp"
#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/status.hpp"

namespace ioguard::bench {

BenchFlags parse_bench_flags(int* argc, char** argv) {
  CliSpec spec("ioguard experiment driver (remaining flags go to Google "
               "Benchmark, e.g. --benchmark_filter=REGEX)");
  spec.flag_int("jobs", 0,
                "worker threads for the trial fan-out; 0 = auto "
                "(IOGUARD_JOBS env or hardware concurrency)")
      .flag("faults", "none",
            "fault plan for the simulated sweeps: a canned name "
            "(none|device-stall|lossy-frames|noc-flaky|translator-jitter|"
            "mixed) or a spec string; 'none' keeps the fault-free baseline")
      .flag("checkpoint", "",
            "journal every finished trial to this file (crash-safe; resume "
            "an interrupted sweep with --resume)")
      .flag_switch("resume",
                   "restore finished trials from --checkpoint; resumed "
                   "aggregates are byte-identical to an uninterrupted sweep")
      .flag_double("trial-timeout", 0.0,
                   "soft per-trial deadline in seconds; slower trials are "
                   "flagged as wedged (0 = off)");
  const auto args = spec.extract(argc, argv);
  if (!args.ok()) {
    std::cerr << "error: " << args.status() << "\n\n"
              << spec.help_text(*argc > 0 ? argv[0] : "bench");
    std::exit(exit_code(args.status()));
  }
  if (args->help_requested()) {
    std::cout << spec.help_text(args->program());
    std::exit(0);
  }
  BenchFlags flags;
  flags.jobs = static_cast<std::size_t>(args->get_int("jobs"));
  auto plan = faults::FaultPlan::parse(args->get("faults"));
  if (!plan.ok()) {
    std::cerr << "error: " << plan.status() << "\n";
    std::exit(exit_code(plan.status()));
  }
  flags.faults = std::move(plan).value();
  flags.checkpoint = args->get("checkpoint");
  flags.resume = args->get_bool("resume");
  flags.trial_timeout = args->get_double("trial-timeout");
  if (flags.resume && flags.checkpoint.empty()) {
    std::cerr << "error: --resume requires --checkpoint=PATH\n";
    std::exit(exit_code(InvalidArgumentError("--resume without --checkpoint")));
  }
  if (flags.trial_timeout < 0.0) {
    std::cerr << "error: --trial-timeout must be >= 0\n";
    std::exit(exit_code(OutOfRangeError("negative --trial-timeout")));
  }
  return flags;
}

std::size_t env_count(const std::string& name, std::size_t fallback) {
  const std::int64_t value =
      env_int(name, static_cast<std::int64_t>(fallback));
  if (value < 1) {
    const Status status = InvalidArgumentError(
        name + " must be at least 1, got " + std::to_string(value));
    std::cerr << "error: " << status << "\n";
    std::exit(exit_code(status));
  }
  return static_cast<std::size_t>(value);
}

std::unique_ptr<sys::CheckpointJournal> open_bench_journal(
    const BenchFlags& flags, const std::string& bench_name,
    const std::string& config) {
  if (flags.checkpoint.empty()) return nullptr;
  sys::CheckpointMeta meta;
  meta.config_echo = "bench=" + bench_name + " " + config +
                     " faults=" + (flags.faults.empty()
                                       ? std::string("none")
                                       : flags.faults.spec_string());
  meta.fingerprint = fnv1a64(meta.config_echo);
  auto journal =
      sys::CheckpointJournal::open(flags.checkpoint, meta, flags.resume);
  if (!journal.ok()) {
    std::cerr << "error: --checkpoint=" << flags.checkpoint << ": "
              << journal.status() << "\n";
    std::exit(exit_code(journal.status()));
  }
  return std::move(journal).value();
}

void BenchReport::add_stage(const std::string& stage,
                            const sys::BatchTiming& timing) {
  Stage s;
  s.name = stage;
  s.has_batch = true;
  s.timing = timing;
  stages_.push_back(std::move(s));
}

void BenchReport::add_stage_seconds(const std::string& stage,
                                    double wall_seconds) {
  Stage s;
  s.name = stage;
  s.wall_seconds = wall_seconds;
  stages_.push_back(std::move(s));
}

void BenchReport::add_metric(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

namespace {

constexpr int kDigits = 9;  ///< doubles print as `os << v` at precision 9

/// The fan-out figures shared by a batch stage and the totals.
Appender& put_batch(Appender& a, const sys::BatchTiming& t) {
  return a.put("\"trials\": ").put_int(t.trials)
      .put(", \"wall_seconds\": ").put_general(t.wall_seconds, kDigits)
      .put(", \"trial_seconds_sum\": ")
      .put_general(t.trial_seconds_sum, kDigits)
      .put(", \"trials_per_second\": ")
      .put_general(t.trials_per_second(), kDigits)
      .put(", \"speedup_estimate\": ")
      .put_general(t.speedup_estimate(), kDigits);
}

}  // namespace

std::string BenchReport::write() const {
  const std::string dir = env_string("IOGUARD_BENCH_OUT", ".");
  const std::string path = dir + "/BENCH_" + name_ + ".json";

  // Batch totals across fan-out stages.
  sys::BatchTiming total;
  bool any_batch = false;
  for (const auto& s : stages_)
    if (s.has_batch) {
      total.accumulate(s.timing);
      any_batch = true;
    }

  std::string buf;
  Appender a(&buf);
  a.put("{\n  \"bench\": \"").put_json_escaped(name_)
      .put("\",\n  \"jobs\": ").put_int(jobs_)
      .put(",\n  \"stages\": [\n");
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const Stage& s = stages_[i];
    a.put("    {\"name\": \"").put_json_escaped(s.name).put_char('"');
    if (s.has_batch) {
      const auto& t = s.timing;
      put_batch(a.put(", "), t);
      if (t.trial_seconds.count() > 0)
        a.put(", \"trial_seconds_mean\": ")
            .put_general(t.trial_seconds.mean(), kDigits)
            .put(", \"trial_seconds_max\": ")
            .put_general(t.trial_seconds.max(), kDigits);
    } else {
      a.put(", \"wall_seconds\": ").put_general(s.wall_seconds, kDigits);
    }
    a.put(i + 1 < stages_.size() ? "},\n" : "}\n");
  }
  a.put("  ],\n");
  if (!metrics_.empty()) {
    a.put("  \"metrics\": {");
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      a.put(i ? ", \"" : "\"").put_json_escaped(metrics_[i].first)
          .put("\": ").put_general(metrics_[i].second, kDigits);
    a.put("},\n");
  }
  a.put("  \"totals\": {");
  if (any_batch) {
    put_batch(a, total);
  } else {
    double wall = 0.0;
    for (const auto& s : stages_) wall += s.wall_seconds;
    a.put("\"trials\": 0, \"wall_seconds\": ").put_general(wall, kDigits)
        .put(", \"trial_seconds_sum\": 0, \"trials_per_second\": 0")
        .put(", \"speedup_estimate\": 1");
  }
  a.put("}\n}\n");
  // Atomic publish: check_bench.py must never see a torn report, even if
  // the bench is killed between write and close.
  if (const Status s = write_file_atomic(path, buf); !s.ok()) {
    std::cerr << "bench: cannot write " << path << " (skipping report): " << s
              << "\n";
    return {};
  }
  return path;
}

}  // namespace ioguard::bench
