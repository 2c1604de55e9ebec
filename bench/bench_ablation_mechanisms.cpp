// EXP-ABL1 -- mechanism ablation (ours, motivated by DESIGN.md):
// which of I/O-GUARD's ingredients buys how much of the Fig. 7 gap?
//   * BS|Legacy            -- shared NoC + non-preemptive FIFO controller
//   * BS|BV                -- + hardware virtualization (still FIFO)
//   * I/O-GUARD (no-budget)-- direct link + global job-EDF, no server
//                             isolation (GschedPolicy::kGlobalEdfNoBudget)
//   * I/O-GUARD (job-EDF)  -- budgets on, grants by job deadline
//   * I/O-GUARD (srv-EDF)  -- the analysed configuration (Theorem 1)
//   * I/O-GUARD-70         -- + P-channel preloading (70% of tasks)
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

struct Variant {
  std::string label;
  SystemKind kind;
  double preload;
  core::GschedPolicy policy;
};

BatchTiming print_ablation(const bench::BenchFlags& flags, std::size_t trials,
                           std::size_t min_jobs, std::uint64_t base_seed,
                           CheckpointJournal* journal) {

  const std::vector<Variant> variants = {
      {"Legacy(NoC+FIFO)", SystemKind::kLegacy, 0.0,
       core::GschedPolicy::kServerEdf},
      {"BV(+hw-virt)", SystemKind::kBlueVisor, 0.0,
       core::GschedPolicy::kServerEdf},
      {"IOG(no-budget)", SystemKind::kIoGuard, 0.0,
       core::GschedPolicy::kGlobalEdfNoBudget},
      {"IOG(job-EDF)", SystemKind::kIoGuard, 0.0,
       core::GschedPolicy::kJobEdf},
      {"IOG(srv-EDF)", SystemKind::kIoGuard, 0.0,
       core::GschedPolicy::kServerEdf},
      {"IOG-70(srv-EDF)", SystemKind::kIoGuard, 0.7,
       core::GschedPolicy::kServerEdf},
  };
  const std::vector<double> utils = {0.6, 0.75, 0.9, 1.0};

  std::cout << "=== Ablation: scheduling/path mechanisms, 8 VMs, success "
               "ratio (" << trials << " trials) ===\n";
  std::vector<std::string> header{"variant"};
  for (double u : utils) header.push_back(fmt_double(u * 100, 0) + "%");
  TextTable table(header);

  ParallelRunner runner(flags.jobs);
  BatchTiming timing;
  for (std::size_t vi = 0; vi < variants.size(); ++vi) {
    const auto& v = variants[vi];
    std::vector<std::string> row{v.label};
    for (double util : utils) {
      BatchTiming batch;
      SupervisionPolicy policy;
      policy.trial_timeout_seconds = flags.trial_timeout;
      policy.stop = InterruptGuard::flag();
      policy.journal = journal;
      // Three IOG variants share (kind, preload) and differ only in the
      // grant policy, so the variant index salts the journal key.
      policy.point_key =
          checkpoint_point_key(v.kind, v.preload, 8, util, /*salt=*/vi);
      // Seeds depend on (base, sweep point, t) only -- every variant sees
      // the same workloads, so rows differ by mechanism, not by luck.
      const auto supervised = runner.run_supervised(
          trials,
          [&](std::size_t t) {
            TrialConfig tc;
            tc.kind = v.kind;
            tc.workload.num_vms = 8;
            tc.workload.target_utilization = util;
            tc.workload.preload_fraction = v.preload;
            tc.gsched_policy = v.policy;
            tc.min_jobs_per_task = min_jobs;
            tc.trial_seed = mix_seed(base_seed, sweep_point_key(8, util), t);
            tc.faults = flags.faults;
            return tc;
          },
          policy, /*metrics=*/nullptr, &batch);
      std::size_t successes = 0;
      for (std::size_t t = 0; t < supervised.results.size(); ++t) {
        if (supervised.outcomes[t] == TrialOutcome::kAbandoned ||
            supervised.outcomes[t] == TrialOutcome::kSkipped)
          continue;
        if (supervised.results[t].success()) ++successes;
      }
      timing.accumulate(batch);
      row.push_back(
          fmt_double(static_cast<double>(successes) / trials, 2));
    }
    table.add_row(std::move(row));
  }
  table.render(std::cout);
  std::cout << '\n';
  return timing;
}

void BM_AblationTrial(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    TrialConfig tc;
    tc.kind = SystemKind::kIoGuard;
    tc.workload.num_vms = 8;
    tc.workload.target_utilization = 0.9;
    tc.gsched_policy = core::GschedPolicy::kJobEdf;
    tc.min_jobs_per_task = 10;
    tc.trial_seed = ++seed;
    benchmark::DoNotOptimize(run_trial(tc).misses);
  }
}
BENCHMARK(BM_AblationTrial)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_bench_flags(&argc, argv);
  const std::size_t trials = bench::env_count("IOGUARD_TRIALS", 8);
  const std::size_t min_jobs = bench::env_count("IOGUARD_MIN_JOBS", 25);
  const std::int64_t seed = env_int("IOGUARD_SEED", 42);
  const auto journal = bench::open_bench_journal(
      flags, "ablation_mechanisms",
      "trials=" + std::to_string(trials) +
          " min_jobs=" + std::to_string(min_jobs) +
          " seed=" + std::to_string(seed));
  ioguard::InterruptGuard interrupt_guard;
  const auto timing =
      print_ablation(flags, trials, min_jobs,
                     static_cast<std::uint64_t>(seed), journal.get());
  if (ioguard::InterruptGuard::requested()) {
    std::cerr << "interrupted; finished trials are journaled"
              << (journal ? ", re-run with --resume to continue" : "")
              << "\n";
    return ioguard::kInterruptedExitCode;
  }
  bench::BenchReport report("ablation_mechanisms");
  report.set_jobs(timing.jobs);
  report.add_stage("mechanism_grid", timing);
  report.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
