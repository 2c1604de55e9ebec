// EXP-PROF -- cycle-attribution profiler: what the observability layer
// costs and what it reports.
//
// Two questions, one driver:
//   (1) overhead -- how much slower is a full-system trial with the
//       profiler, the jitter recorder, or both switched on, versus the
//       bare trial the other benches time? The instrumentation is a
//       handful of branch-and-increment per slot, so the answer should be
//       low single-digit percent; the table makes regressions visible.
//   (2) attribution -- where do the slots of a Fig. 7 case-study trial
//       go? Every component's busy/stall/quiescent counters sum to the
//       horizon (the profiler's partition invariant), so the table is a
//       complete account of the trial, not a sample.
//
// The fan-out stage feeds BENCH_profile.json the same BatchTiming
// accounting the other drivers emit, so scripts/check_bench.py can track
// profiled-trial throughput next to the bare-trial benches.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>

#include "bench_json.hpp"
#include "common/env.hpp"
#include "common/interrupt.hpp"
#include "common/table.hpp"
#include "system/parallel.hpp"
#include "system/runner.hpp"

namespace {

using namespace ioguard;
using namespace ioguard::sys;

struct ProfileKnobs {
  bool profile = false;
  bool jitter = false;
};

TrialConfig make_case_study_config(std::uint64_t seed, ProfileKnobs knobs) {
  TrialConfig tc;
  tc.kind = SystemKind::kIoGuard;
  tc.workload.num_vms = 8;
  tc.workload.target_utilization = 0.7;
  tc.workload.preload_fraction = 0.7;
  tc.min_jobs_per_task = bench::env_count("IOGUARD_MIN_JOBS", 25);
  tc.trial_seed = seed;
  tc.collect_profile = knobs.profile;
  tc.collect_jitter = knobs.jitter;
  return tc;
}

/// Wall time of `reps` sequential trials with the given knobs.
double time_trials(std::size_t reps, ProfileKnobs knobs) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r)
    benchmark::DoNotOptimize(
        run_trial(make_case_study_config(1 + r, knobs)));
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void print_overhead(bench::BenchReport& report) {
  const std::size_t reps = bench::env_count("IOGUARD_TRIALS", 4);
  const double bare = time_trials(reps, {});
  const double prof = time_trials(reps, {.profile = true});
  const double jit = time_trials(reps, {.jitter = true});
  const double both = time_trials(reps, {.profile = true, .jitter = true});

  std::cout << "=== observability overhead (" << reps
            << " case-study trials each) ===\n";
  TextTable table({"instrumentation", "wall_s", "vs_bare"});
  auto row = [&](const char* name, double wall) {
    table.add(name, fmt_double(wall, 3),
              fmt_double(100.0 * (wall - bare) / bare, 1) + "%");
  };
  row("none (baseline)", bare);
  row("profiler", prof);
  row("jitter recorder", jit);
  row("profiler + jitter", both);
  table.render(std::cout);
  std::cout << "\n";

  report.add_stage_seconds("bare_trials", bare);
  report.add_stage_seconds("profiled_trials", prof);
  report.add_stage_seconds("jitter_trials", jit);
  report.add_stage_seconds("full_observability_trials", both);
}

void print_attribution() {
  const auto result = run_trial(make_case_study_config(
      static_cast<std::uint64_t>(env_int("IOGUARD_SEED", 42)),
      {.profile = true, .jitter = true}));

  std::cout << "=== cycle attribution: Fig. 7 case-study trial ("
            << result.horizon << " slots) ===\n";
  TextTable table({"component", "busy", "stall", "quiescent", "busy_frac"});
  bool partition_holds = true;
  for (const auto& c : result.profile) {
    table.add(c.name, c.busy_slots, c.stall_slots, c.quiescent_slots,
              fmt_double(static_cast<double>(c.busy_slots) /
                             static_cast<double>(result.horizon),
                         3));
    if (c.total_slots() != result.horizon) partition_holds = false;
  }
  table.render(std::cout);
  std::cout << (partition_holds
                    ? "partition invariant: every row sums to the horizon\n"
                    : "PARTITION VIOLATION: a row does not sum to the "
                      "horizon\n")
            << "\n";
}

/// Profiled trial fan-out, so the BENCH json carries the usual
/// trials/sec + speedup accounting for the instrumented path.
BatchTiming run_profiled_sweep(const bench::BenchFlags& flags) {
  const std::size_t trials = bench::env_count("IOGUARD_TRIALS", 8);
  ParallelRunner runner(flags.jobs);
  BatchTiming timing;
  (void)runner.run_trials(
      trials,
      [&](std::size_t t) {
        auto tc = make_case_study_config(t + 1,
                                         {.profile = true, .jitter = true});
        tc.faults = flags.faults;
        return tc;
      },
      nullptr, &timing);
  std::cout << "profiled fan-out: jobs=" << timing.jobs << ", "
            << fmt_double(timing.trials_per_second(), 1)
            << " trials/s, speedup "
            << fmt_double(timing.speedup_estimate(), 2) << "x\n\n";
  return timing;
}

void BM_ProfiledTrial(benchmark::State& state) {
  const ProfileKnobs knobs{.profile = state.range(0) != 0,
                           .jitter = state.range(0) != 0};
  std::uint64_t seed = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(run_trial(make_case_study_config(seed++, knobs)));
}
BENCHMARK(BM_ProfiledTrial)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_bench_flags(&argc, argv);
  ioguard::InterruptGuard interrupt_guard;

  bench::BenchReport report("profile");
  print_overhead(report);
  print_attribution();
  const auto timing = run_profiled_sweep(flags);
  if (ioguard::InterruptGuard::requested())
    return ioguard::kInterruptedExitCode;

  report.set_jobs(timing.jobs);
  report.add_stage("profiled_sweep", timing);
  const auto path = report.write();
  if (!path.empty()) std::cout << "report: " << path << "\n\n";

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
