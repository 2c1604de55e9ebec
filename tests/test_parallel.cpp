// Determinism contract of the parallel experiment runner (DESIGN.md):
// for a fixed config and base seed, every aggregate -- TrialResult fields,
// merged MetricsRegistry, exported Prometheus text -- is bit-identical for
// any --jobs value. These tests run the same batches at jobs=1 (inline,
// exactly the old sequential loop) and jobs=4 and compare outputs
// field-by-field and byte-by-byte.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "system/experiment.hpp"
#include "system/parallel.hpp"
#include "telemetry/prometheus.hpp"

namespace ioguard::sys {
namespace {

TrialConfig small_trial(std::size_t t, SystemKind kind,
                        bool collect_everything = false) {
  TrialConfig tc;
  tc.kind = kind;
  tc.workload.num_vms = 4;
  tc.workload.target_utilization = 0.8;
  tc.workload.preload_fraction = kind == SystemKind::kIoGuard ? 0.5 : 0.0;
  tc.min_jobs_per_task = 8;
  tc.trial_seed = mix_seed(42, sweep_point_key(4, 0.8), t);
  tc.collect_response_times = collect_everything;
  tc.collect_stage_latencies = collect_everything;
  return tc;
}

void expect_identical(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.jobs_counted, b.jobs_counted);
  EXPECT_EQ(a.jobs_on_time, b.jobs_on_time);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.critical_misses, b.critical_misses);
  EXPECT_EQ(a.dropped, b.dropped);
  // Bitwise equality, not EXPECT_DOUBLE_EQ: same trial, same arithmetic.
  EXPECT_EQ(a.goodput_bytes_per_s, b.goodput_bytes_per_s);
  EXPECT_EQ(a.device_busy_frac, b.device_busy_frac);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.misses_by_task, b.misses_by_task);
  EXPECT_EQ(a.response_slots.count(), b.response_slots.count());
  EXPECT_EQ(a.stage_issue.count(), b.stage_issue.count());
  EXPECT_EQ(a.stage_issue.mean(), b.stage_issue.mean());
  EXPECT_EQ(a.stage_backend.count(), b.stage_backend.count());
  EXPECT_EQ(a.stage_backend.mean(), b.stage_backend.mean());
}

TEST(ParallelRunner, TrialResultsIdenticalAcrossJobCounts) {
  for (SystemKind kind : {SystemKind::kLegacy, SystemKind::kIoGuard}) {
    ParallelRunner seq(1), par(4);
    ASSERT_EQ(seq.jobs(), 1u);
    ASSERT_EQ(par.jobs(), 4u);
    const std::size_t trials = 6;
    const auto make = [&](std::size_t t) { return small_trial(t, kind); };
    const auto a = seq.run_trials(trials, make);
    const auto b = par.run_trials(trials, make);
    ASSERT_EQ(a.size(), trials);
    ASSERT_EQ(b.size(), trials);
    for (std::size_t t = 0; t < trials; ++t) {
      SCOPED_TRACE("trial " + std::to_string(t));
      expect_identical(a[t], b[t]);
    }
  }
}

TEST(ParallelRunner, MergedPrometheusTextIdenticalAcrossJobCounts) {
  // Gauges are last-writer-wins, so this only holds if registries merge in
  // trial-index order -- the strongest observable form of the contract.
  const auto run = [](std::size_t jobs) {
    ParallelRunner runner(jobs);
    telemetry::MetricsRegistry metrics;
    runner.run_trials(
        5, [](std::size_t t) { return small_trial(t, SystemKind::kIoGuard); },
        &metrics);
    std::ostringstream os;
    telemetry::write_prometheus(os, metrics);
    return os.str();
  };
  const std::string seq = run(1);
  const std::string par = run(4);
  EXPECT_FALSE(seq.empty());
  EXPECT_EQ(seq, par);
}

TEST(ParallelRunner, ObservabilitySeriesIdenticalAcrossJobCounts) {
  // The new timing-accuracy series (jitter histograms, profiler counters)
  // ride the same merge contract: exported bytes identical for any jobs
  // width, per-trial jitter/profile fields identical trial by trial.
  const auto run = [](std::size_t jobs, std::string& prom) {
    ParallelRunner runner(jobs);
    telemetry::MetricsRegistry metrics;
    auto results = runner.run_trials(
        5,
        [](std::size_t t) {
          auto tc = small_trial(t, SystemKind::kIoGuard);
          tc.collect_jitter = true;
          tc.collect_profile = true;
          return tc;
        },
        &metrics);
    std::ostringstream os;
    telemetry::write_prometheus(os, metrics);
    prom = os.str();
    return results;
  };
  std::string seq_prom, par_prom;
  const auto seq = run(1, seq_prom);
  const auto par = run(4, par_prom);
  EXPECT_NE(seq_prom.find("ioguard_timing_jitter_cycles"), std::string::npos);
  EXPECT_NE(seq_prom.find("ioguard_profile_cycles_total"), std::string::npos);
  EXPECT_EQ(seq_prom, par_prom);

  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t t = 0; t < seq.size(); ++t) {
    SCOPED_TRACE("trial " + std::to_string(t));
    ASSERT_TRUE(seq[t].jitter.collected);
    EXPECT_TRUE(seq[t].jitter.p_by_vm == par[t].jitter.p_by_vm);
    EXPECT_TRUE(seq[t].jitter.r_by_vm == par[t].jitter.r_by_vm);
    EXPECT_TRUE(seq[t].jitter.fifo_by_vm == par[t].jitter.fifo_by_vm);
    EXPECT_TRUE(seq[t].jitter.translator_by_device ==
                par[t].jitter.translator_by_device);
    ASSERT_EQ(seq[t].profile.size(), par[t].profile.size());
    for (std::size_t i = 0; i < seq[t].profile.size(); ++i) {
      EXPECT_EQ(seq[t].profile[i].name, par[t].profile[i].name);
      EXPECT_EQ(seq[t].profile[i].busy_slots, par[t].profile[i].busy_slots);
      EXPECT_EQ(seq[t].profile[i].stall_slots, par[t].profile[i].stall_slots);
      EXPECT_EQ(seq[t].profile[i].quiescent_slots,
                par[t].profile[i].quiescent_slots);
    }
  }
}

TEST(ParallelRunner, RunPointAggregatesIdenticalAcrossJobCounts) {
  ExperimentConfig cfg;
  cfg.trials = 6;
  cfg.min_jobs_per_task = 8;
  cfg.base_seed = 42;
  const EvaluatedSystem system{SystemKind::kIoGuard, 0.7, "I/O-GUARD-70"};

  cfg.jobs = 1;
  const auto a = run_point(system, 4, 0.85, cfg);
  cfg.jobs = 4;
  const auto b = run_point(system, 4, 0.85, cfg);

  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.goodput_mbps.count(), b.goodput_mbps.count());
  EXPECT_EQ(a.goodput_mbps.mean(), b.goodput_mbps.mean());
  EXPECT_EQ(a.goodput_mbps.raw().m2, b.goodput_mbps.raw().m2);
  EXPECT_EQ(a.busy_frac.mean(), b.busy_frac.mean());
  EXPECT_EQ(a.critical_miss_rate.mean(), b.critical_miss_rate.mean());
}

TEST(ParallelRunner, SummaryJsonIsNonDestructiveAndIdentical) {
  const auto tc = small_trial(0, SystemKind::kIoGuard,
                              /*collect_everything=*/true);
  const TrialResult r = run_trial(tc);

  std::ostringstream first, second;
  write_trial_summary_json(first, tc, r);
  // A second summary of the same (const) result must be byte-identical:
  // percentile extraction works on a scratch copy, not the sample buffer.
  write_trial_summary_json(second, tc, r);
  EXPECT_FALSE(first.str().empty());
  EXPECT_EQ(first.str(), second.str());
}

TEST(ParallelRunner, BatchTimingAccountsEveryTrial) {
  ParallelRunner runner(2);
  BatchTiming timing;
  runner.run_trials(
      4, [](std::size_t t) { return small_trial(t, SystemKind::kLegacy); },
      nullptr, &timing);
  EXPECT_EQ(timing.trials, 4u);
  EXPECT_EQ(timing.jobs, 2u);
  EXPECT_GT(timing.wall_seconds, 0.0);
  EXPECT_GT(timing.trial_seconds_sum, 0.0);
  EXPECT_EQ(timing.trial_seconds.count(), 4u);
  EXPECT_GT(timing.trials_per_second(), 0.0);
  EXPECT_GT(timing.speedup_estimate(), 0.0);

  // accumulate() folds a second batch in.
  BatchTiming total;
  total.accumulate(timing);
  total.accumulate(timing);
  EXPECT_EQ(total.trials, 8u);
  EXPECT_EQ(total.trial_seconds.count(), 8u);
}

TEST(ParallelRunner, RejectsSharedRegistryInTrialConfig) {
  ParallelRunner runner(1);
  telemetry::MetricsRegistry shared;
  EXPECT_THROW(runner.run_trials(2,
                                 [&](std::size_t t) {
                                   auto tc = small_trial(t, SystemKind::kLegacy);
                                   tc.metrics = &shared;  // data race by design
                                   return tc;
                                 }),
               CheckFailure);
}

TEST(TrialSeeds, MatchBetweenBatchAndSingleTrialDrivers) {
  // The CLI's --verify preflight and export paths reconstruct trial seeds
  // via trial_seed_for; they must agree with what run_point feeds run_trial.
  ExperimentConfig cfg;
  cfg.base_seed = 42;
  EXPECT_EQ(trial_seed_for(cfg, 8, 0.9, 0),
            mix_seed(42, sweep_point_key(8, 0.9), 0));
  // Quantization: a parsed 0.85 and a computed 17*0.05 hit the same stream.
  EXPECT_EQ(sweep_point_key(8, 0.85), sweep_point_key(8, 17 * 0.05));
  EXPECT_NE(sweep_point_key(8, 0.85), sweep_point_key(8, 0.9));
  EXPECT_NE(sweep_point_key(8, 0.85), sweep_point_key(4, 0.85));
}

}  // namespace
}  // namespace ioguard::sys
