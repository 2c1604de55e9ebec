// EXP-F7A/B/C -- Figure 7: the automotive case study.
//   (a) success ratio vs target utilization, 4 VMs
//   (b) success ratio vs target utilization, 8 VMs
//   (c) I/O throughput vs target utilization, both groups
// Systems: BS|Legacy, BS|RT-XEN, BS|BV, I/O-GUARD-40, I/O-GUARD-70.
//
// Scaling: the paper runs 1000 trials x 100 s per point on the FPGA; the
// simulator defaults to IOGUARD_TRIALS=8 trials with horizons giving every
// task >= IOGUARD_MIN_JOBS=25 jobs. Raise both env vars to tighten the
// curves (shapes are stable from ~8 trials).
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_json.hpp"
#include "common/env.hpp"
#include "common/interrupt.hpp"
#include "common/table.hpp"
#include "system/experiment.hpp"

namespace {

using namespace ioguard;
using namespace ioguard::sys;

ExperimentConfig experiment_config(const bench::BenchFlags& flags) {
  ExperimentConfig cfg;
  cfg.trials = bench::env_count("IOGUARD_TRIALS", 8);
  cfg.min_jobs_per_task = bench::env_count("IOGUARD_MIN_JOBS", 25);
  cfg.base_seed = static_cast<std::uint64_t>(env_int("IOGUARD_SEED", 42));
  cfg.jobs = flags.jobs;
  cfg.faults = flags.faults;
  cfg.trial_timeout_seconds = flags.trial_timeout;
  return cfg;
}

BatchTiming print_group(std::size_t num_vms, const ExperimentConfig& cfg) {
  const auto systems = figure7_systems();
  const auto sweep = utilization_sweep();

  std::cout << "=== Figure 7(" << (num_vms == 4 ? 'a' : 'b')
            << "): success ratio, " << num_vms << " VMs (" << cfg.trials
            << " trials/point) ===\n";
  std::vector<std::string> header{"util"};
  for (const auto& s : systems) header.push_back(s.label);
  TextTable success(header);
  TextTable throughput(header);

  BatchTiming timing;
  for (double util : sweep) {
    std::vector<std::string> srow{fmt_double(util * 100, 0) + "%"};
    std::vector<std::string> trow = srow;
    for (const auto& s : systems) {
      const auto p = run_point(s, num_vms, util, cfg, &timing);
      srow.push_back(fmt_double(p.success_ratio(), 2));
      trow.push_back(fmt_double(p.goodput_mbps.mean(), 1));
    }
    success.add_row(std::move(srow));
    throughput.add_row(std::move(trow));
  }
  success.render(std::cout);
  std::cout << "\n=== Figure 7(c) slice: I/O goodput (Mbit/s), " << num_vms
            << " VMs ===\n";
  throughput.render(std::cout);
  std::cout << '\n';
  return timing;
}

void BM_TrialLegacy(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    TrialConfig tc;
    tc.kind = SystemKind::kLegacy;
    tc.workload.num_vms = 4;
    tc.workload.target_utilization = 0.7;
    tc.min_jobs_per_task = 10;
    tc.trial_seed = ++seed;
    benchmark::DoNotOptimize(run_trial(tc).misses);
  }
}
BENCHMARK(BM_TrialLegacy)->Unit(benchmark::kMillisecond);

void BM_TrialIoGuard(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    TrialConfig tc;
    tc.kind = SystemKind::kIoGuard;
    tc.workload.num_vms = 4;
    tc.workload.target_utilization = 0.7;
    tc.workload.preload_fraction = 0.7;
    tc.min_jobs_per_task = 10;
    tc.trial_seed = ++seed;
    benchmark::DoNotOptimize(run_trial(tc).misses);
  }
}
BENCHMARK(BM_TrialIoGuard)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_bench_flags(&argc, argv);
  auto cfg = experiment_config(flags);

  // Every (system, vms, util) point journals under its own key, so one
  // journal file covers the whole two-group sweep; SIGINT/SIGTERM drain
  // in-flight trials and exit 3, and --resume picks up where it stopped.
  const auto journal = bench::open_bench_journal(
      flags, "fig7_case_study",
      "trials=" + std::to_string(cfg.trials) +
          " min_jobs=" + std::to_string(cfg.min_jobs_per_task) +
          " seed=" + std::to_string(cfg.base_seed));
  ioguard::InterruptGuard interrupt_guard;
  cfg.checkpoint = journal.get();
  cfg.stop = ioguard::InterruptGuard::flag();

  bench::BenchReport report("fig7_case_study");
  const auto t4 = print_group(4, cfg);
  const auto t8 = print_group(8, cfg);
  if (ioguard::InterruptGuard::requested()) {
    std::cerr << "interrupted; finished trials are journaled"
              << (journal ? ", re-run with --resume to continue" : "")
              << "\n";
    return ioguard::kInterruptedExitCode;
  }
  report.set_jobs(t4.jobs);
  report.add_stage("fig7_4vm", t4);
  report.add_stage("fig7_8vm", t8);
  std::cout << "trial fan-out: jobs=" << t4.jobs << ", "
            << fmt_double(t4.trials_per_second(), 1) << " trials/s, speedup "
            << fmt_double(t4.speedup_estimate(), 2) << "x (4 VMs)\n";
  const auto path = report.write();
  if (!path.empty()) std::cout << "report: " << path << "\n\n";

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
