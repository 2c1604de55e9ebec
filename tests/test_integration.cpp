// Cross-module integration tests:
//  * the analytic transit model vs. the cycle-level NoC under load,
//  * end-to-end: cycle-level NoC carrying I/O requests into the hypervisor,
//  * analysis-vs-execution: Theorem-admitted I/O-GUARD runs have zero misses,
//  * FIFO-vs-EDF crossover on the real case-study workload.
#include <gtest/gtest.h>

#include <deque>

#include "core/hypervisor.hpp"
#include "noc/mesh.hpp"
#include "sched/sbf.hpp"
#include "system/runner.hpp"
#include "system/stages.hpp"

namespace ioguard {
namespace {

// ---------------------------------------------------------------------------
// The analytic TransitModel is the substitution used by the Fig. 7 sweeps;
// validate its zero-load base against the cycle-level mesh.
TEST(Integration, TransitModelBaseMatchesMeshZeroLoad) {
  noc::MeshConfig mcfg;
  noc::Mesh mesh(mcfg);
  // Average zero-load latency over representative processor->I/O pairs.
  double total = 0.0;
  int pairs = 0;
  for (int x = 0; x < 4; ++x) {
    for (int y = 0; y < 4; ++y) {
      total += static_cast<double>(mesh.zero_load_latency(
          mesh.node_at(x, y), mesh.node_at(4, 4), 16));
      ++pairs;
    }
  }
  const double mesh_mean = total / pairs;

  sys::Calibration cal;
  sys::TransitModel legacy(cal, sys::SystemKind::kLegacy, 4, 0.0, 1);
  // The analytic model should sit above the bare zero-load mean (it folds in
  // injection/ejection and background kernel/memory traffic) but stay within
  // one order of magnitude of it.
  EXPECT_GT(legacy.mean_cycles(), mesh_mean * 0.5);
  EXPECT_LT(legacy.mean_cycles(), mesh_mean * 10.0);
}

// ---------------------------------------------------------------------------
// Cycle-level end-to-end: processors on a mesh send I/O request packets to a
// hypervisor node; the hypervisor executes them at slot granularity and
// responses travel back over the mesh.
TEST(Integration, MeshCarriesRequestsIntoHypervisorAndBack) {
  noc::MeshConfig mcfg;
  mcfg.width = 3;
  mcfg.height = 3;
  noc::Mesh mesh(mcfg);

  // Hypervisor with an empty P-channel, 4 VMs, SPI device.
  workload::TaskSet no_predef;
  auto build = sched::build_time_slot_table(no_predef);
  std::vector<sched::ServerParams> servers(4, sched::ServerParams{4, 1});
  core::VManagerConfig vc;
  vc.num_vms = 4;
  core::VirtManager manager(iodev::DeviceSpec{"spi0"},
                            no_predef, build.table, servers, vc);

  const NodeId hyp_node = mesh.node_at(2, 2);
  std::deque<workload::Job> inbox;
  mesh.set_delivery_handler(hyp_node, [&](const noc::Packet& p, Cycle) {
    workload::Job j;
    j.id = JobId{static_cast<std::uint32_t>(p.tag)};
    j.task = TaskId{static_cast<std::uint32_t>(p.tag)};
    j.vm = VmId{static_cast<std::uint32_t>(p.tag % 4)};
    j.device = DeviceId{0};
    j.release = 0;
    j.absolute_deadline = 4000;
    j.wcet = 2;
    j.payload_bytes = p.payload_bytes;
    inbox.push_back(j);
  });

  int responses = 0;
  for (int v = 0; v < 4; ++v)
    mesh.set_delivery_handler(mesh.node_at(v % 3, v / 3),
                              [&](const noc::Packet&, Cycle) { ++responses; });

  // Four processors each send one request packet.
  for (std::uint32_t v = 0; v < 4; ++v) {
    noc::Packet p;
    p.src = mesh.node_at(static_cast<int>(v) % 3, static_cast<int>(v) / 3);
    p.dst = hyp_node;
    p.kind = noc::PacketKind::kIoRequest;
    p.payload_bytes = 32;
    p.tag = v;
    mesh.send(p, 0);
  }

  // Co-simulate: mesh at cycle granularity, hypervisor every 100 cycles.
  std::vector<iodev::Completion> done;
  Cycle now = 0;
  for (; now < 20000 && done.size() < 4; ++now) {
    mesh.tick(now);
    if (now % 100 == 99) {
      while (!inbox.empty()) {
        ASSERT_TRUE(manager.submit(inbox.front(), now / 100));
        inbox.pop_front();
      }
      std::vector<iodev::Completion> finished;
      manager.tick_slot(now / 100, finished);
      for (const auto& c : finished) {
        done.push_back(c);
        noc::Packet resp;
        resp.src = hyp_node;
        resp.dst = mesh.node_at(static_cast<int>(c.job.vm.value) % 3,
                                static_cast<int>(c.job.vm.value) / 3);
        resp.kind = noc::PacketKind::kIoResponse;
        resp.payload_bytes = c.job.payload_bytes;
        resp.tag = c.job.id.value;
        mesh.send(resp, now);
      }
    }
  }
  for (Cycle c = now; c < now + 5000; ++c) mesh.tick(c);

  EXPECT_EQ(done.size(), 4u);
  EXPECT_EQ(responses, 4);
  for (const auto& c : done) EXPECT_FALSE(c.missed());
}

// ---------------------------------------------------------------------------
// Analysis-execution agreement: when the hypervisor admits the workload
// (Theorems 2 + 4 hold on every device), the executed schedule has zero
// deadline misses.
TEST(Integration, AdmittedWorkloadsRunWithoutMisses) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sys::TrialConfig tc;
    tc.kind = sys::SystemKind::kIoGuard;
    tc.workload.num_vms = 4;
    tc.workload.target_utilization = 0.5;
    tc.workload.preload_fraction = 0.4;
    tc.min_jobs_per_task = 5;
    tc.trial_seed = seed;
    const auto r = sys::run_trial(tc);
    if (!r.admitted) continue;  // only the admitted runs carry the guarantee
    EXPECT_EQ(r.misses, 0u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// The paper's qualitative crossover on the real workload: at moderate
// utilization everything works; pushing utilization up breaks the FIFO
// baselines before I/O-GUARD.
TEST(Integration, FifoVsEdfCrossoverOnCaseStudyWorkload) {
  auto misses_at = [](sys::SystemKind kind, double util, double preload) {
    std::uint64_t total = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      sys::TrialConfig tc;
      tc.kind = kind;
      tc.workload.num_vms = 8;
      tc.workload.target_utilization = util;
      tc.workload.preload_fraction = preload;
      tc.min_jobs_per_task = 5;
      tc.trial_seed = seed;
      total += sys::run_trial(tc).critical_misses;
    }
    return total;
  };

  const auto legacy_low = misses_at(sys::SystemKind::kLegacy, 0.45, 0.0);
  const auto legacy_high = misses_at(sys::SystemKind::kLegacy, 1.0, 0.0);
  const auto ioguard_high = misses_at(sys::SystemKind::kIoGuard, 1.0, 0.7);

  EXPECT_EQ(legacy_low, 0u);
  EXPECT_GT(legacy_high, 0u);
  EXPECT_LT(ioguard_high, legacy_high);
}

// ---------------------------------------------------------------------------
// The two-layer scheduler's bandwidth guarantee observed in execution:
// granted slots per VM never fall below what its server guarantees over the
// measured span (Theorem 1's conclusion).
TEST(Integration, GschedDeliversServerBandwidthUnderSaturation) {
  workload::TaskSet no_predef;
  auto build = sched::build_time_slot_table(no_predef);
  std::vector<sched::ServerParams> servers = {{4, 1}, {4, 2}};
  core::VManagerConfig vc;
  vc.num_vms = 2;
  vc.pool_capacity = 64;
  core::VirtManager manager(iodev::DeviceSpec{"spi0"},
                            no_predef, build.table, servers, vc);

  // Saturate both pools so every granted slot is consumed.
  for (std::uint32_t i = 0; i < 40; ++i) {
    workload::Job j;
    j.id = JobId{i};
    j.task = TaskId{i};
    j.vm = VmId{i % 2};
    j.device = DeviceId{0};
    j.release = 0;
    j.absolute_deadline = 100000 + i;
    j.wcet = 50;
    j.payload_bytes = 8;
    ASSERT_TRUE(manager.submit(j, 0));
  }
  std::vector<iodev::Completion> done;
  const Slot span = 400;  // 100 server periods
  for (Slot s = 0; s < span; ++s) manager.tick_slot(s, done);

  EXPECT_GE(manager.gsched().granted(0), span / 4 * 1);
  EXPECT_GE(manager.gsched().granted(1), span / 4 * 2);
}

}  // namespace
}  // namespace ioguard
