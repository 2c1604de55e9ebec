// Machine-readable benchmark reports.
//
// Every experiment driver that fans trials out through ParallelRunner emits
// one BENCH_<name>.json next to its table output, so CI (and humans) can
// check throughput and parallel speedup without scraping stdout. The file
// lands in $IOGUARD_BENCH_OUT (default: current directory) and is validated
// by scripts/check_bench.py.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "faults/fault_plan.hpp"
#include "system/checkpoint.hpp"
#include "system/parallel.hpp"

namespace ioguard::bench {

/// Flags shared by every experiment driver, extracted from argv before
/// benchmark::Initialize sees them (Google Benchmark aborts on unknown
/// flags). `jobs == 0` means "use default_jobs(): IOGUARD_JOBS env or
/// hardware concurrency"; `faults` defaults to the empty plan, keeping the
/// simulated sweeps bit-identical to a fault-free build. `checkpoint` /
/// `resume` / `trial_timeout` enable crash-safe supervised fan-out in the
/// drivers that thread them through (fig7/fig8/latency/ablations).
struct BenchFlags {
  std::size_t jobs = 0;
  faults::FaultPlan faults;
  std::string checkpoint;      ///< journal path; empty = no checkpointing
  bool resume = false;         ///< restore finished trials from `checkpoint`
  double trial_timeout = 0.0;  ///< soft per-trial deadline (s); 0 = off
};

/// Pulls `--jobs=N`, `--faults=PLAN`, `--checkpoint=PATH`, `--resume`,
/// `--trial-timeout=S` and `--help` out of argv via CliSpec::extract,
/// leaving Google Benchmark's own flags in place. On a parse error this
/// prints the error plus the flag list and exits with the Status-mapped
/// code; on --help it prints the flag list and exits 0.
BenchFlags parse_bench_flags(int* argc, char** argv);

/// Reads the count variable `name` (IOGUARD_TRIALS, IOGUARD_MIN_JOBS, ...)
/// over the bench's own `fallback`; an unset or malformed value keeps the
/// fallback. A count below 1 prints an error naming the variable and exits 2.
std::size_t env_count(const std::string& name, std::size_t fallback);

/// Opens the bench's checkpoint journal per `flags` (nullptr when no
/// --checkpoint was given). The fingerprint covers the bench name, the
/// sweep shape (`config` -- any stable driver-chosen string), trial count,
/// seed and the fault plan, so resuming a different sweep is refused with
/// CKP002. Exits with the Status-mapped code on open failure, mirroring
/// parse_bench_flags' error handling.
std::unique_ptr<sys::CheckpointJournal> open_bench_journal(
    const BenchFlags& flags, const std::string& bench_name,
    const std::string& config);

/// Collects per-stage timing of one benchmark run and writes it as
/// BENCH_<name>.json. Stages either carry full fan-out accounting (a
/// BatchTiming) or just a wall-clock figure for analytic phases.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void set_jobs(std::size_t jobs) { jobs_ = jobs; }

  /// Records a trial fan-out stage (trials/sec + speedup derivable).
  void add_stage(const std::string& stage, const sys::BatchTiming& timing);

  /// Records an analytic/serial stage where only wall time is meaningful.
  void add_stage_seconds(const std::string& stage, double wall_seconds);

  /// Records a named scalar (e.g. a measured event-vs-stepped speedup) into
  /// the report's top-level "metrics" object. check_bench.py validates the
  /// values and can gate on them via --min-metric=name:THRESHOLD.
  void add_metric(const std::string& name, double value);

  /// Writes BENCH_<name>.json into $IOGUARD_BENCH_OUT (default ".").
  /// Returns the path written, or an empty string on I/O failure (benches
  /// must not fail the run because a results directory is read-only).
  std::string write() const;

 private:
  struct Stage {
    std::string name;
    bool has_batch = false;
    sys::BatchTiming timing;     ///< valid when has_batch
    double wall_seconds = 0.0;   ///< valid when !has_batch
  };

  std::string name_;
  std::size_t jobs_ = 1;
  std::vector<Stage> stages_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace ioguard::bench
