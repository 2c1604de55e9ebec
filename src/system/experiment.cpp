#include "system/experiment.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "system/checkpoint.hpp"

namespace ioguard::sys {

std::vector<EvaluatedSystem> figure7_systems() {
  return {
      {SystemKind::kLegacy, 0.0, "BS|Legacy"},
      {SystemKind::kRtXen, 0.0, "BS|RT-XEN"},
      {SystemKind::kBlueVisor, 0.0, "BS|BV"},
      {SystemKind::kIoGuard, 0.4, "I/O-GUARD-40"},
      {SystemKind::kIoGuard, 0.7, "I/O-GUARD-70"},
  };
}

std::uint64_t sweep_point_key(std::size_t num_vms, double target_utilization) {
  // Utilization is quantized to 1e-4 so the key survives parsing round
  // trips (0.85 from a flag == 0.85 from the sweep generator).
  const auto util_ticks =
      static_cast<std::uint64_t>(std::llround(target_utilization * 10000.0));
  return (static_cast<std::uint64_t>(num_vms) << 32) | util_ticks;
}

std::uint64_t trial_seed_for(const ExperimentConfig& cfg, std::size_t num_vms,
                             double target_utilization, std::size_t t) {
  return mix_seed(cfg.base_seed, sweep_point_key(num_vms, target_utilization),
                  t);
}

PointResult run_point(const EvaluatedSystem& system, std::size_t num_vms,
                      double target_utilization, const ExperimentConfig& cfg,
                      BatchTiming* timing) {
  PointResult point;
  point.system = system;
  point.num_vms = num_vms;
  point.target_utilization = target_utilization;
  point.trials = cfg.trials;

  ParallelRunner runner(cfg.jobs);
  BatchTiming batch;
  SupervisionPolicy policy;
  policy.trial_timeout_seconds = cfg.trial_timeout_seconds;
  policy.stop = cfg.stop;
  policy.journal = cfg.checkpoint;
  policy.point_key =
      checkpoint_point_key(system.kind, system.preload_fraction, num_vms,
                           target_utilization);
  const BatchResult supervised = runner.run_supervised(
      cfg.trials,
      [&](std::size_t t) {
        TrialConfig tc;
        tc.kind = system.kind;
        tc.workload.num_vms = num_vms;
        tc.workload.target_utilization = target_utilization;
        tc.workload.preload_fraction = system.preload_fraction;
        tc.min_jobs_per_task = cfg.min_jobs_per_task;
        tc.trial_seed = trial_seed_for(cfg, num_vms, target_utilization, t);
        tc.faults = cfg.faults;
        return tc;
      },
      policy, /*metrics=*/nullptr, timing ? &batch : nullptr);

  // Deterministic merge: fold trial results in index order, exactly as the
  // sequential loop used to. Abandoned and skipped slots hold placeholders
  // (a default TrialResult would count as a success) and stay out.
  for (std::size_t t = 0; t < supervised.results.size(); ++t) {
    const TrialOutcome outcome = supervised.outcomes[t];
    if (outcome == TrialOutcome::kAbandoned ||
        outcome == TrialOutcome::kSkipped)
      continue;
    const TrialResult& r = supervised.results[t];
    if (r.success()) ++point.successes;
    point.goodput_mbps.add(r.goodput_bytes_per_s * 8.0 / 1e6);
    point.busy_frac.add(r.device_busy_frac);
    if (r.jobs_counted > 0)
      point.critical_miss_rate.add(static_cast<double>(r.critical_misses) /
                                   static_cast<double>(r.jobs_counted));
  }
  point.restored = supervised.restored;
  point.retried = supervised.retried;
  point.abandoned = supervised.abandoned;
  point.skipped = supervised.skipped;
  point.interrupted = supervised.interrupted;
  if (timing) timing->accumulate(batch);
  return point;
}

std::vector<double> utilization_sweep() {
  std::vector<double> sweep;
  for (int pct = 40; pct <= 100; pct += 5)
    sweep.push_back(static_cast<double>(pct) / 100.0);
  return sweep;
}

}  // namespace ioguard::sys
