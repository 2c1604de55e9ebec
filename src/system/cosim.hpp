// Cycle-accurate full-system co-simulation: the mesh NoC in the loop.
//
// The Fig. 7 sweeps use the slot-level runner with an analytic transit
// model (DESIGN.md substitution table). This module runs the same workload
// with the *real* cycle-level wormhole mesh carrying every request and
// response packet:
//
//   * processors (VMs) sit on mesh nodes; each I/O device has its own node;
//   * on the baselines, requests serialize into packets, traverse the mesh,
//     and queue at the device node's FIFO controller; responses return the
//     same way;
//   * on I/O-GUARD, processors use dedicated point-to-point links to the
//     hypervisor (no routers on the path, per Sec. II-A), modeled as a
//     fixed small latency; the mesh still exists and carries background
//     traffic if configured.
//
// Every cycle runs, while the analytic runner skips idle slots, so it is far
// slower per simulated second; it serves validation (tests compare the two)
// and latency studies rather than 1000-trial sweeps.
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "system/config.hpp"
#include "workload/generator.hpp"

namespace ioguard::sys {

struct CosimConfig {
  SystemKind kind = SystemKind::kLegacy;
  workload::CaseStudyConfig workload;   ///< preload used only by I/O-GUARD
  Slot horizon_slots = 20000;           ///< 200 ms at 10 us slots
  std::uint64_t seed = 1;
  Calibration cal;
  /// Background traffic injected per node per cycle (memory/kernel traffic
  /// sharing the mesh with I/O, kBackground packets).
  double background_rate = 0.0;
};

struct CosimResult {
  std::uint64_t jobs_counted = 0;
  std::uint64_t jobs_on_time = 0;
  std::uint64_t critical_misses = 0;
  std::uint64_t dropped = 0;
  /// Request packet latency through the interconnect, cycles.
  SampleSet request_latency_cycles;
  /// End-to-end response time of critical jobs, slots.
  SampleSet response_slots;
  std::uint64_t noc_packets_delivered = 0;

  [[nodiscard]] bool success() const { return critical_misses == 0; }
};

/// Runs one cycle-accurate trial. Deterministic in `config`.
CosimResult run_cosim(const CosimConfig& config);

}  // namespace ioguard::sys
