// EXP-LAT (ours) -- request-path latency decomposition: where does each
// architecture spend an I/O request's lifetime? Quantifies Sec. I's claim
// that "complicated paths introduce significant communication latency and
// timing variance": software issue, VMM, interconnect transit and device
// back-end (queueing + service), in microseconds, per system and load.
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

BatchTiming print_breakdown(const bench::BenchFlags& flags, std::size_t trials,
                            std::uint64_t base_seed,
                            CheckpointJournal* journal) {
  constexpr double kUsPerSlot = 10.0;

  ParallelRunner runner(flags.jobs);
  BatchTiming timing;
  for (double util : {0.5, 0.9}) {
    std::cout << "=== Request-path latency breakdown (us), 8 VMs, "
              << fmt_double(util * 100, 0) << "% utilization ===\n";
    TextTable table({"system", "sw issue", "VMM", "transit",
                     "backend (queue+serve)", "total"});
    for (const auto& system : figure7_systems()) {
      BatchTiming batch;
      SupervisionPolicy policy;
      policy.trial_timeout_seconds = flags.trial_timeout;
      policy.stop = InterruptGuard::flag();
      policy.journal = journal;
      policy.point_key = checkpoint_point_key(
          system.kind, system.preload_fraction, 8, util);
      const auto supervised = runner.run_supervised(
          trials,
          [&](std::size_t t) {
            TrialConfig tc;
            tc.kind = system.kind;
            tc.workload.num_vms = 8;
            tc.workload.target_utilization = util;
            tc.workload.preload_fraction = system.preload_fraction;
            tc.min_jobs_per_task = 15;
            tc.trial_seed = mix_seed(base_seed, sweep_point_key(8, util), t);
            tc.collect_stage_latencies = true;
            tc.faults = flags.faults;
            return tc;
          },
          policy, /*metrics=*/nullptr, &batch);
      timing.accumulate(batch);
      // Merge per-trial stage stats in trial-index order (deterministic for
      // any jobs value); abandoned/skipped slots hold no data.
      OnlineStats issue, vmm, transit, backend;
      for (std::size_t t = 0; t < supervised.results.size(); ++t) {
        if (supervised.outcomes[t] == TrialOutcome::kAbandoned ||
            supervised.outcomes[t] == TrialOutcome::kSkipped)
          continue;
        const auto& r = supervised.results[t];
        issue.merge(r.stage_issue);
        vmm.merge(r.stage_vmm);
        transit.merge(r.stage_transit);
        backend.merge(r.stage_backend);
      }
      const double total_us = (issue.mean() + vmm.mean() + transit.mean() +
                               backend.mean()) *
                              kUsPerSlot;
      table.add(system.label, fmt_double(issue.mean() * kUsPerSlot, 1),
                vmm.count() ? fmt_double(vmm.mean() * kUsPerSlot, 1)
                            : std::string("-"),
                fmt_double(transit.mean() * kUsPerSlot, 1),
                fmt_double(backend.mean() * kUsPerSlot, 1),
                fmt_double(total_us, 1));
    }
    table.render(std::cout);
    std::cout << '\n';
  }
  std::cout << "(I/O-GUARD's path collapses to the dedicated link + the "
               "preemptively scheduled back-end; P-channel jobs bypass the "
               "request path entirely and are not in these averages)\n\n";
  return timing;
}

void BM_InstrumentedTrial(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    TrialConfig tc;
    tc.kind = SystemKind::kRtXen;
    tc.workload.num_vms = 8;
    tc.workload.target_utilization = 0.9;
    tc.min_jobs_per_task = 10;
    tc.trial_seed = ++seed;
    tc.collect_stage_latencies = true;
    benchmark::DoNotOptimize(run_trial(tc).stage_backend.mean());
  }
}
BENCHMARK(BM_InstrumentedTrial)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_bench_flags(&argc, argv);
  const std::size_t trials = bench::env_count("IOGUARD_TRIALS", 4);
  const std::int64_t seed = env_int("IOGUARD_SEED", 42);
  const auto journal = bench::open_bench_journal(
      flags, "latency_breakdown",
      "trials=" + std::to_string(trials) + " seed=" + std::to_string(seed));
  ioguard::InterruptGuard interrupt_guard;
  const auto timing = print_breakdown(
      flags, trials, static_cast<std::uint64_t>(seed), journal.get());
  if (ioguard::InterruptGuard::requested()) {
    std::cerr << "interrupted; finished trials are journaled"
              << (journal ? ", re-run with --resume to continue" : "")
              << "\n";
    return ioguard::kInterruptedExitCode;
  }
  bench::BenchReport report("latency_breakdown");
  report.set_jobs(timing.jobs);
  report.add_stage("breakdown_grid", timing);
  report.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
