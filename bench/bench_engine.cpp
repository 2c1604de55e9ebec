// EXP-ENGINE -- event-driven trial runner vs dense slot stepping (DESIGN.md
// §15).
//
// What does the event-driven runner buy on real case-study trials? Identical
// seeds run in event mode and on the retained slot-stepped reference
// (TrialConfig::stepped); trial summaries are byte-compared before any
// timing is trusted. Expected shape: >= 3x on the low-utilization point, ~1x
// at the fully-loaded worst case.
//
// BENCH_engine.json carries the measured ratios in the "metrics" object;
// CI gates metrics.event_speedup_low_util via check_bench.py --min-metric.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_json.hpp"
#include "common/env.hpp"
#include "common/table.hpp"
#include "system/runner.hpp"

namespace {

using namespace ioguard;
using namespace ioguard::sys;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct SystemPoint {
  const char* label;
  std::size_t vms;
  double util;
  double preload;
};

TrialConfig make_config(const SystemPoint& p, std::uint64_t seed,
                        bool stepped) {
  TrialConfig tc;
  tc.kind = SystemKind::kIoGuard;
  tc.workload.num_vms = p.vms;
  tc.workload.target_utilization = p.util;
  tc.workload.preload_fraction = p.preload;
  tc.min_jobs_per_task =
      static_cast<std::size_t>(env_int("IOGUARD_MIN_JOBS", 200));
  tc.trial_seed = seed;
  tc.stepped = stepped;
  return tc;
}

/// Wall seconds for `trials` sequential trials; the first trial's summary
/// bytes land in `summary` for the cross-mode identity check.
double time_system(const SystemPoint& p, std::size_t trials, bool stepped,
                   std::string& summary) {
  double wall = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    const TrialConfig tc = make_config(p, t + 1, stepped);
    const auto t0 = std::chrono::steady_clock::now();
    const TrialResult result = run_trial(tc);
    wall += seconds_since(t0);
    benchmark::DoNotOptimize(result.jobs_counted);
    if (t == 0) {
      std::ostringstream os;
      write_trial_summary_json(os, tc, result);
      summary = os.str();
    }
  }
  return wall;
}

void system_sweep(bench::BenchReport& report) {
  const auto trials = static_cast<std::size_t>(env_int("IOGUARD_TRIALS", 2));
  const SystemPoint points[] = {
      {"low_util", 1, 0.02, 0.0},
      {"mid_util", 4, 0.05, 0.3},
      {"high_util", 8, 0.9, 0.7},
  };

  std::cout << "=== system: event-driven vs stepped reference (" << trials
            << " trials per point) ===\n";
  TextTable table({"point", "stepped_s", "event_s", "speedup"});
  for (const SystemPoint& p : points) {
    std::string event_summary, stepped_summary;
    const double event_wall = time_system(p, trials, false, event_summary);
    const double stepped_wall = time_system(p, trials, true, stepped_summary);
    if (event_summary != stepped_summary) {
      std::cerr << "FATAL: event-driven trial diverged from the stepped "
                   "reference at "
                << p.label << "\n";
      std::exit(1);
    }
    const double speedup = stepped_wall / event_wall;
    table.add(p.label, fmt_double(stepped_wall, 3), fmt_double(event_wall, 3),
              fmt_double(speedup, 2) + "x");
    report.add_stage_seconds(std::string("system_stepped_") + p.label,
                             stepped_wall);
    report.add_stage_seconds(std::string("system_event_") + p.label,
                             event_wall);
    report.add_metric(std::string("event_speedup_") + p.label, speedup);
  }
  table.render(std::cout);
  std::cout << "modes byte-compared via trial summaries before timing was "
               "trusted\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  (void)bench::parse_bench_flags(&argc, argv);

  bench::BenchReport report("engine");
  system_sweep(report);

  const auto path = report.write();
  if (!path.empty()) std::cout << "report: " << path << "\n";
  return 0;
}
