// Tests for the cycle-accurate co-simulation (NoC in the loop), including
// cross-validation against the analytic slot-level runner.
#include <gtest/gtest.h>

#include <sstream>

#include "golden.hpp"
#include "system/cosim.hpp"
#include "system/runner.hpp"

namespace ioguard::sys {
namespace {

CosimConfig base_config(SystemKind kind, double util) {
  CosimConfig cfg;
  cfg.kind = kind;
  cfg.workload.num_vms = 4;
  cfg.workload.target_utilization = util;
  cfg.workload.preload_fraction = kind == SystemKind::kIoGuard ? 0.4 : 0.0;
  cfg.horizon_slots = 1500;  // 15 ms keeps the cycle loop test-fast
  cfg.seed = 5;
  return cfg;
}

TEST(Cosim, AllSystemsMeetDeadlinesAtModerateLoad) {
  for (SystemKind kind : {SystemKind::kLegacy, SystemKind::kBlueVisor,
                          SystemKind::kIoGuard}) {
    const auto r = run_cosim(base_config(kind, 0.5));
    EXPECT_GT(r.jobs_counted, 20u) << to_string(kind);
    EXPECT_TRUE(r.success()) << to_string(kind) << " misses="
                             << r.critical_misses;
    EXPECT_EQ(r.dropped, 0u);
  }
}

TEST(Cosim, BaselineRequestsActuallyTraverseTheMesh) {
  auto r = run_cosim(base_config(SystemKind::kLegacy, 0.5));
  EXPECT_GT(r.request_latency_cycles.count(), 20u);
  // Zero-load latency for a few hops is ~10 cycles; contention adds more.
  EXPECT_GE(r.request_latency_cycles.percentile(50), 5.0);
  EXPECT_GT(r.noc_packets_delivered, 2 * r.request_latency_cycles.count() - 10);
}

TEST(Cosim, IoGuardBypassesTheRouters) {
  const auto r = run_cosim(base_config(SystemKind::kIoGuard, 0.5));
  // Dedicated links: no request packets on the mesh at zero background.
  EXPECT_EQ(r.request_latency_cycles.count(), 0u);
  EXPECT_EQ(r.noc_packets_delivered, 0u);
}

TEST(Cosim, BackgroundTrafficLoadsTheMeshAndInflatesLatency) {
  auto quiet = base_config(SystemKind::kLegacy, 0.5);
  auto noisy = quiet;
  noisy.background_rate = 0.02;
  auto rq = run_cosim(quiet);
  auto rn = run_cosim(noisy);
  EXPECT_GT(rn.noc_packets_delivered, rq.noc_packets_delivered);
  ASSERT_GT(rn.request_latency_cycles.count(), 0u);
  EXPECT_GE(rn.request_latency_cycles.percentile(99),
            rq.request_latency_cycles.percentile(99));
}

TEST(Cosim, Deterministic) {
  const auto a = run_cosim(base_config(SystemKind::kBlueVisor, 0.6));
  const auto b = run_cosim(base_config(SystemKind::kBlueVisor, 0.6));
  EXPECT_EQ(a.jobs_counted, b.jobs_counted);
  EXPECT_EQ(a.jobs_on_time, b.jobs_on_time);
  EXPECT_EQ(a.noc_packets_delivered, b.noc_packets_delivered);
}

TEST(Cosim, AgreesWithAnalyticRunnerOnOutcome) {
  // Same workload seed and utilization: the cycle-accurate and analytic
  // models must agree on the qualitative outcome (all deadlines met at
  // moderate load on both paths).
  const auto cyc = run_cosim(base_config(SystemKind::kLegacy, 0.5));

  TrialConfig tc;
  tc.kind = SystemKind::kLegacy;
  tc.workload.num_vms = 4;
  tc.workload.target_utilization = 0.5;
  tc.horizon = 1500;
  tc.trial_seed = 5;
  const auto ana = run_trial(tc);

  EXPECT_TRUE(cyc.success());
  EXPECT_TRUE(ana.success());
  // Identical workload construction: same number of counted jobs.
  EXPECT_EQ(cyc.jobs_counted, ana.jobs_counted);
}

TEST(Cosim, GoldenResultBytes) {
  // cycle_accurate_demo's configuration at a short horizon, light and heavy
  // background traffic: every count and every request-latency and response
  // sample in order, doubles in hexfloat. Pins the mesh's visible behaviour
  // across interconnect optimisations.
  std::ostringstream os;
  for (const double bg : {0.002, 0.02}) {
    for (SystemKind kind : {SystemKind::kLegacy, SystemKind::kRtXen,
                            SystemKind::kBlueVisor, SystemKind::kIoGuard}) {
      CosimConfig cfg;
      cfg.kind = kind;
      cfg.workload.num_vms = 8;
      cfg.workload.target_utilization = 0.6;
      cfg.workload.preload_fraction = 0.7;
      cfg.horizon_slots = 1000;
      cfg.background_rate = bg;
      const CosimResult r = run_cosim(cfg);
      os << std::defaultfloat << to_string(kind) << " bg " << bg << '\n'
         << std::hexfloat << r.jobs_counted << ' ' << r.jobs_on_time << ' '
         << r.critical_misses << ' ' << r.dropped << ' '
         << r.noc_packets_delivered << "\nreq";
      for (const double x : r.request_latency_cycles.samples()) os << ' ' << x;
      os << "\nresp";
      for (const double x : r.response_slots.samples()) os << ' ' << x;
      os << '\n';
    }
  }
  ioguard::testing::expect_matches_golden("cosim_golden.txt", os.str());
}

}  // namespace
}  // namespace ioguard::sys
