// EXP-ENGINE -- event-driven trial runner vs dense slot stepping (DESIGN.md
// §15).
//
// What does the event-driven runner buy on real case-study trials? Identical
// seeds run in event mode and on the retained slot-stepped reference
// (TrialConfig::stepped); trial summaries are byte-compared before any
// timing is trusted. Each trial then runs kRepetitions times per mode, the
// modes alternating which goes first, and a mode's time is the sum of its
// trials' fastest runs: other load on the host slows single runs and never
// speeds one up, so the fastest run is the one that measures the code.
// Expected shape: >= 3x on the low-utilization point, and > 1x even at the
// fully-loaded worst case, where few slots can be skipped: event mode keeps
// the L-Sched shadows and the table cursor current from events, while the
// stepped reference recomputes them every slot and checks the kept copies.
//
// BENCH_engine.json carries the measured ratios in the "metrics" object;
// CI gates metrics.event_speedup_low_util (>= 3) and
// metrics.event_speedup_high_util (>= 1) via check_bench.py --min-metric.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
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

TrialConfig make_config(const SystemPoint& p, std::size_t min_jobs,
                        std::uint64_t seed, bool stepped) {
  TrialConfig tc;
  tc.kind = SystemKind::kIoGuard;
  tc.workload.num_vms = p.vms;
  tc.workload.target_utilization = p.util;
  tc.workload.preload_fraction = p.preload;
  tc.min_jobs_per_task = min_jobs;
  tc.trial_seed = seed;
  tc.stepped = stepped;
  return tc;
}

/// Timed runs of every trial per mode, alternating which mode goes first.
constexpr int kRepetitions = 5;

/// Summary bytes of one trial, for the cross-mode identity check.
std::string trial_summary(const TrialConfig& tc) {
  const TrialResult result = run_trial(tc);
  std::ostringstream os;
  write_trial_summary_json(os, tc, result);
  return os.str();
}

/// Wall seconds of one trial.
double time_trial(const TrialConfig& tc) {
  const auto t0 = std::chrono::steady_clock::now();
  const TrialResult result = run_trial(tc);
  const double wall = seconds_since(t0);
  benchmark::DoNotOptimize(result.jobs_counted);
  return wall;
}

void system_sweep(bench::BenchReport& report, std::size_t trials,
                  std::size_t min_jobs) {
  const SystemPoint points[] = {
      {"low_util", 1, 0.02, 0.0},
      {"mid_util", 4, 0.05, 0.3},
      {"high_util", 8, 0.9, 0.7},
  };

  std::cout << "=== system: event-driven vs stepped reference (" << trials
            << " trials per point) ===\n";
  TextTable table({"point", "stepped_s", "event_s", "speedup"});
  for (const SystemPoint& p : points) {
    for (std::size_t t = 0; t < trials; ++t) {
      if (trial_summary(make_config(p, min_jobs, t + 1, false)) !=
          trial_summary(make_config(p, min_jobs, t + 1, true))) {
        std::cerr << "FATAL: event-driven trial diverged from the stepped "
                     "reference at "
                  << p.label << "\n";
        std::exit(1);
      }
    }
    constexpr double kUnset = std::numeric_limits<double>::infinity();
    std::vector<double> best_event(trials, kUnset);
    std::vector<double> best_stepped(trials, kUnset);
    for (int rep = 0; rep < kRepetitions; ++rep) {
      for (const bool stepped : {rep % 2 == 1, rep % 2 == 0}) {
        std::vector<double>& best = stepped ? best_stepped : best_event;
        for (std::size_t t = 0; t < trials; ++t)
          best[t] = std::min(best[t],
                             time_trial(make_config(p, min_jobs, t + 1,
                                                    stepped)));
      }
    }
    const double event_wall =
        std::accumulate(best_event.begin(), best_event.end(), 0.0);
    const double stepped_wall =
        std::accumulate(best_stepped.begin(), best_stepped.end(), 0.0);
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
  std::cout << "modes byte-compared via trial summaries before timing; each "
               "mode timed by its trials' fastest of "
            << kRepetitions << " alternating repetitions\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  (void)bench::parse_bench_flags(&argc, argv);
  const std::size_t trials = bench::env_count("IOGUARD_TRIALS", 2);
  const std::size_t min_jobs = bench::env_count("IOGUARD_MIN_JOBS", 200);

  bench::BenchReport report("engine");
  system_sweep(report, trials, min_jobs);

  const auto path = report.write();
  if (!path.empty()) std::cout << "report: " << path << "\n";
  return 0;
}
