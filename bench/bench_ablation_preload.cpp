// EXP-ABL2 -- P-channel preload-fraction sweep (ours): Obs 3 notes that
// I/O-GUARD-70 consistently beats I/O-GUARD-40; this bench sweeps
// x in {0, 20, 40, 60, 70, 80, 100}% at several utilizations to show the
// full trend and its saturation.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_json.hpp"
#include "common/env.hpp"
#include "common/interrupt.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "system/experiment.hpp"

namespace {

using namespace ioguard;
using namespace ioguard::sys;

BatchTiming print_sweep(const bench::BenchFlags& flags, std::size_t trials,
                        std::size_t min_jobs, std::uint64_t base_seed,
                        CheckpointJournal* journal) {
  const std::vector<double> preloads = {0.0, 0.2, 0.4, 0.6, 0.7, 0.8, 1.0};
  const std::vector<double> utils = {0.7, 0.85, 1.0};

  std::cout << "=== Ablation: P-channel preload fraction, 8 VMs ("
            << trials << " trials) ===\n";
  std::vector<std::string> header{"preload"};
  for (double u : utils)
    header.push_back("success@" + fmt_double(u * 100, 0) + "%");
  header.push_back("goodput@100% (Mbit/s)");
  TextTable table(header);

  ParallelRunner runner(flags.jobs);
  BatchTiming timing;
  for (double x : preloads) {
    std::vector<std::string> row{fmt_double(x * 100, 0) + "%"};
    double goodput_at_full = 0.0;
    for (double util : utils) {
      BatchTiming batch;
      SupervisionPolicy policy;
      policy.trial_timeout_seconds = flags.trial_timeout;
      policy.stop = InterruptGuard::flag();
      policy.journal = journal;
      // The preload fraction feeds the point key, so every sweep row
      // journals under its own key.
      policy.point_key =
          checkpoint_point_key(SystemKind::kIoGuard, x, 8, util);
      const auto supervised = runner.run_supervised(
          trials,
          [&](std::size_t t) {
            TrialConfig tc;
            tc.kind = SystemKind::kIoGuard;
            tc.workload.num_vms = 8;
            tc.workload.target_utilization = util;
            tc.workload.preload_fraction = x;
            tc.min_jobs_per_task = min_jobs;
            tc.trial_seed = mix_seed(base_seed, sweep_point_key(8, util), t);
            tc.faults = flags.faults;
            return tc;
          },
          policy, /*metrics=*/nullptr, &batch);
      std::size_t successes = 0;
      double goodput = 0.0;
      for (std::size_t t = 0; t < supervised.results.size(); ++t) {
        if (supervised.outcomes[t] == TrialOutcome::kAbandoned ||
            supervised.outcomes[t] == TrialOutcome::kSkipped)
          continue;
        const auto& r = supervised.results[t];
        if (r.success()) ++successes;
        goodput += r.goodput_bytes_per_s * 8.0 / 1e6;
      }
      timing.accumulate(batch);
      row.push_back(fmt_double(static_cast<double>(successes) / trials, 2));
      if (util == 1.0) goodput_at_full = goodput / trials;
    }
    row.push_back(fmt_double(goodput_at_full, 1));
    table.add_row(std::move(row));
  }
  table.render(std::cout);
  std::cout << "paper (Obs 3): higher preload fraction => higher success "
               "ratio and throughput, lower variance\n\n";
  return timing;
}

void BM_PreloadTrial(benchmark::State& state) {
  const double preload = static_cast<double>(state.range(0)) / 100.0;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    TrialConfig tc;
    tc.kind = SystemKind::kIoGuard;
    tc.workload.num_vms = 8;
    tc.workload.target_utilization = 0.9;
    tc.workload.preload_fraction = preload;
    tc.min_jobs_per_task = 10;
    tc.trial_seed = ++seed;
    benchmark::DoNotOptimize(run_trial(tc).misses);
  }
}
BENCHMARK(BM_PreloadTrial)->Arg(0)->Arg(40)->Arg(70)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_bench_flags(&argc, argv);
  const std::size_t trials = bench::env_count("IOGUARD_TRIALS", 8);
  const std::size_t min_jobs = bench::env_count("IOGUARD_MIN_JOBS", 25);
  const std::int64_t seed = env_int("IOGUARD_SEED", 42);
  const auto journal = bench::open_bench_journal(
      flags, "ablation_preload",
      "trials=" + std::to_string(trials) +
          " min_jobs=" + std::to_string(min_jobs) +
          " seed=" + std::to_string(seed));
  ioguard::InterruptGuard interrupt_guard;
  const auto timing = print_sweep(flags, trials, min_jobs,
                                  static_cast<std::uint64_t>(seed),
                                  journal.get());
  if (ioguard::InterruptGuard::requested()) {
    std::cerr << "interrupted; finished trials are journaled"
              << (journal ? ", re-run with --resume to continue" : "")
              << "\n";
    return ioguard::kInterruptedExitCode;
  }
  bench::BenchReport report("ablation_preload");
  report.set_jobs(timing.jobs);
  report.add_stage("preload_sweep", timing);
  report.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
