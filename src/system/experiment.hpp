// Multi-trial experiment driver for the case study (Fig. 7) and ablations.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "system/parallel.hpp"
#include "system/runner.hpp"

namespace ioguard::sys {

/// One evaluated configuration (system + P-channel preload fraction).
struct EvaluatedSystem {
  SystemKind kind;
  double preload_fraction = 0.0;
  std::string label;
};

/// The five systems of Fig. 7.
[[nodiscard]] std::vector<EvaluatedSystem> figure7_systems();

/// Aggregated result of `trials` runs at one (system, vms, utilization).
struct PointResult {
  EvaluatedSystem system;
  std::size_t num_vms = 0;
  double target_utilization = 0.0;
  std::size_t trials = 0;
  std::size_t successes = 0;
  OnlineStats goodput_mbps;       ///< goodput in Mbit/s across trials
  OnlineStats critical_miss_rate; ///< critical misses / counted jobs
  OnlineStats busy_frac;

  // Supervision bookkeeping (all zero / false on an unsupervised run).
  std::size_t restored = 0;   ///< trials replayed from the checkpoint journal
  std::size_t retried = 0;    ///< trials that needed a re-execution
  std::size_t abandoned = 0;  ///< trials excluded from the aggregates
  std::size_t skipped = 0;    ///< trials not started (graceful stop)
  bool interrupted = false;   ///< a stop request cut this point short

  [[nodiscard]] double success_ratio() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(successes) /
                             static_cast<double>(trials);
  }
};

struct ExperimentConfig {
  std::size_t trials = 20;            ///< paper: 1000 (see DESIGN.md scaling)
  std::size_t min_jobs_per_task = 50; ///< paper: >= 250
  std::uint64_t base_seed = 42;
  /// Trial fan-out width: 0 = default_jobs() (IOGUARD_JOBS env or hardware
  /// concurrency), 1 = sequential. Aggregates are bit-identical either way.
  std::size_t jobs = 1;
  /// Fault plan applied to every trial (empty = fault-free baseline; trial
  /// seeds still differ per trial, so fault schedules differ per trial too).
  faults::FaultPlan faults;

  // --- supervision / crash safety (all optional; see DESIGN.md §12) ------
  /// Soft per-trial deadline in seconds (0 = off); overruns are flagged as
  /// wedged in the point result, never killed. A throwing trial runs at most
  /// SupervisionPolicy::max_attempts times.
  double trial_timeout_seconds = 0.0;
  /// Crash-safe journal: finished trials land here per trial, and journaled
  /// trials are restored instead of re-run (not owned; may be null).
  CheckpointJournal* checkpoint = nullptr;
  /// Graceful-stop flag polled between trials (not owned; may be null).
  const std::atomic<bool>* stop = nullptr;
};

/// Stable identifier of one (num_vms, utilization) sweep point, used as the
/// `stream` component of per-trial seed derivation (mix_seed). The system
/// under test is deliberately excluded: all systems evaluated at one sweep
/// point must see identical workloads and release traces.
[[nodiscard]] std::uint64_t sweep_point_key(std::size_t num_vms,
                                            double target_utilization);

/// Seed of trial `t` at one sweep point: mix_seed over
/// (base_seed, sweep_point_key, t). Exposed so single-trial drivers (CLI
/// --verify preflight, export paths) can reproduce exactly what a batch ran.
[[nodiscard]] std::uint64_t trial_seed_for(const ExperimentConfig& cfg,
                                           std::size_t num_vms,
                                           double target_utilization,
                                           std::size_t t);

/// Runs `trials` trials of one point, fanned out over cfg.jobs threads.
/// Trial seeds depend only on (base_seed, sweep point, trial index), so all
/// systems see identical workloads/traces; aggregation happens in trial-
/// index order, so the result is independent of cfg.jobs. When `timing` is
/// non-null, the batch's wall-clock accounting is accumulated into it.
PointResult run_point(const EvaluatedSystem& system, std::size_t num_vms,
                      double target_utilization, const ExperimentConfig& cfg,
                      BatchTiming* timing = nullptr);

/// Utilization sweep of the paper: 40%..100% step 5%.
[[nodiscard]] std::vector<double> utilization_sweep();

}  // namespace ioguard::sys
