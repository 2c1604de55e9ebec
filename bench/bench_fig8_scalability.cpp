// EXP-F8A/B/C -- Figure 8: scalability with eta (number of VMs = 2^eta).
//   (a) normalized area consumption, BS|Legacy vs I/O-GUARD
//   (b) power consumption
//   (c) maximum frequency of the hypervisor vs the legacy router fabric
// Plus a simulated companion sweep: full-system trials at each VM count,
// fanned out over --jobs threads (this is the parallel-runner smoke bench:
// CI checks its BENCH json for throughput and speedup).
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_json.hpp"
#include "common/env.hpp"
#include "common/interrupt.hpp"
#include "common/table.hpp"
#include "hwmodel/scaling.hpp"
#include "system/experiment.hpp"

namespace {

using namespace ioguard;
using namespace ioguard::hw;

void print_figure8() {
  const auto sweep = scaling_sweep(5);

  std::cout << "=== Figure 8(a): normalized area vs eta (VMs = 2^eta) ===\n";
  TextTable area({"eta", "VMs", "legacy", "I/O-GUARD", "overhead"});
  for (const auto& p : sweep) {
    area.add(p.eta, p.num_vms, fmt_double(p.legacy_area_norm, 4),
             fmt_double(p.ioguard_area_norm, 4),
             fmt_double(100.0 * (p.ioguard_area_norm - p.legacy_area_norm) /
                            p.legacy_area_norm,
                        1) +
                 "%");
  }
  area.render(std::cout);
  std::cout << "paper: overhead bounded within 20%\n\n";

  std::cout << "=== Figure 8(b): power (mW) vs eta ===\n";
  TextTable power({"eta", "VMs", "legacy_mw", "ioguard_mw"});
  for (const auto& p : sweep)
    power.add(p.eta, p.num_vms, fmt_double(p.legacy.power_mw, 0),
              fmt_double(p.ioguard.power_mw, 0));
  power.render(std::cout);
  std::cout << "paper: linear scaling in eta for both systems\n\n";

  std::cout << "=== Figure 8(c): maximum frequency (MHz) vs eta ===\n";
  TextTable fmax({"eta", "VMs", "legacy_fmax", "hypervisor_fmax"});
  for (const auto& p : sweep)
    fmax.add(p.eta, p.num_vms, fmt_double(p.legacy_fmax_mhz, 1),
             fmt_double(p.ioguard_fmax_mhz, 1));
  fmax.render(std::cout);
  std::cout << "paper: hypervisor fmax always above the legacy fabric "
               "(never the critical path)\n\n";
}

/// Simulated scalability: success ratio and goodput of I/O-GUARD-70 as the
/// VM count doubles, `trials` full-system trials per point fanned out over
/// the requested worker width. Aggregates are bit-identical for any jobs
/// value (see DESIGN.md, "Determinism contract"); only the timing varies.
sys::BatchTiming print_simulated_sweep(const bench::BenchFlags& flags,
                                       std::size_t trials,
                                       std::size_t min_jobs,
                                       std::uint64_t base_seed,
                                       sys::CheckpointJournal* journal) {
  sys::ExperimentConfig cfg;
  cfg.trials = trials;
  cfg.min_jobs_per_task = min_jobs;
  cfg.base_seed = base_seed;
  cfg.jobs = flags.jobs;
  cfg.faults = flags.faults;
  cfg.trial_timeout_seconds = flags.trial_timeout;
  cfg.checkpoint = journal;
  cfg.stop = ioguard::InterruptGuard::flag();
  const sys::EvaluatedSystem system{sys::SystemKind::kIoGuard, 0.7,
                                    "I/O-GUARD-70"};

  sys::BatchTiming timing;
  std::cout << "=== Figure 8 companion: simulated trials vs VM count ("
            << cfg.trials << " trials/point) ===\n";
  TextTable table({"VMs", "success", "goodput_mbps", "busy"});
  for (std::size_t vms = 2; vms <= 16; vms *= 2) {
    const auto p = sys::run_point(system, vms, 0.7, cfg, &timing);
    table.add(vms, fmt_double(p.success_ratio(), 2),
              fmt_double(p.goodput_mbps.mean(), 1),
              fmt_double(p.busy_frac.mean(), 2));
  }
  table.render(std::cout);
  std::cout << "trial fan-out: jobs=" << timing.jobs << ", "
            << fmt_double(timing.trials_per_second(), 1)
            << " trials/s, speedup "
            << fmt_double(timing.speedup_estimate(), 2) << "x\n\n";
  return timing;
}

void BM_ScalingPoint(benchmark::State& state) {
  const auto eta = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(scaling_point(eta).ioguard.luts);
}
BENCHMARK(BM_ScalingPoint)->DenseRange(0, 5);

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_bench_flags(&argc, argv);
  const std::size_t trials = bench::env_count("IOGUARD_TRIALS", 8);
  const std::size_t min_jobs = bench::env_count("IOGUARD_MIN_JOBS", 25);
  const std::int64_t seed = env_int("IOGUARD_SEED", 42);
  const auto journal = bench::open_bench_journal(
      flags, "fig8_scalability",
      "trials=" + std::to_string(trials) +
          " min_jobs=" + std::to_string(min_jobs) +
          " seed=" + std::to_string(seed));
  ioguard::InterruptGuard interrupt_guard;
  print_figure8();
  const auto timing =
      print_simulated_sweep(flags, trials, min_jobs,
                            static_cast<std::uint64_t>(seed), journal.get());
  if (ioguard::InterruptGuard::requested()) {
    std::cerr << "interrupted; finished trials are journaled"
              << (journal ? ", re-run with --resume to continue" : "")
              << "\n";
    return ioguard::kInterruptedExitCode;
  }

  bench::BenchReport report("fig8_scalability");
  report.set_jobs(timing.jobs);
  report.add_stage("simulated_vm_sweep", timing);
  const auto path = report.write();
  if (!path.empty()) std::cout << "report: " << path << "\n\n";

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
