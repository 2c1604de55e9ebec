// System-under-test identities and the calibration constants of the
// mechanistic software/transport models.
//
// The four architectures of the evaluation (Sec. V):
//  * BS|Legacy  -- NoC system without virtualization; kernel I/O manager on
//    each core; FIFO I/O controllers; router-level arbitration only.
//  * BS|RT-XEN  -- software hypervisor (Xen + RT patches + I/O enhancement):
//    guest driver -> trap into VMM -> VMM I/O scheduling (quantum granular,
//    shared software server) -> backend driver -> NoC -> FIFO controller.
//  * BS|BV      -- BlueVisor hardware hypervisor: thin guest driver -> NoC ->
//    hardware translation (bounded) -> FIFO controller. Parallel hardware,
//    no software bottleneck, but no preemptive I/O scheduling.
//  * I/O-GUARD  -- this paper: thin para-virtual driver -> dedicated link ->
//    two-layer preemptive EDF in hardware (P-channel + R-channel).
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace ioguard::sys {

enum class SystemKind : std::uint8_t {
  kLegacy,
  kRtXen,
  kBlueVisor,
  kIoGuard,
};

[[nodiscard]] const char* to_string(SystemKind k);

/// All tunable constants of the mechanistic models, with their provenance.
/// Values are cycles at the 100 MHz platform clock unless noted.
struct Calibration {
  // --- per-request software issue cost on the requesting core -----------
  // Legacy: full I/O manager in the kernel (Fig. 3a path).
  Cycle legacy_issue_cycles = 1000;       // 10 us: driver + kernel manager
  // RT-Xen guest side: para-driver + trap into VMM ("trap into VMM" [9]).
  Cycle rtxen_issue_cycles = 1500;        // 15 us
  // BlueVisor: thin driver, virtualization done in hardware.
  Cycle bv_issue_cycles = 250;            // 2.5 us
  // I/O-GUARD: "the I/O drivers ... only forward the I/O requests".
  Cycle ioguard_issue_cycles = 150;       // 1.5 us

  // --- RT-XEN VMM stage (shared software server) -------------------------
  Cycle vmm_op_base_cycles = 500;         // 5 us backend/scheduling per op
  Cycle vmm_op_per_vm_cycles = 150;       // VCPU-switch share, per active VM
  Slot vmm_quantum_slots = 3;             // 30 us scheduling granularity
                                          // (RT-patched Xen, small quantum)

  // --- NoC transport (baselines; I/O-GUARD uses a dedicated link) --------
  Cycle noc_base_cycles = 30;             // ~zero-load request traversal
  Cycle noc_per_vm_cycles = 8;            // contention per active VM
  double noc_util_factor = 2.0;           // contention blow-up vs device load
  Cycle ioguard_link_cycles = 4;          // point-to-point processor link

  // --- hardware translation (BV and I/O-GUARD virtualization driver) -----
  Cycle translation_wcet_cycles = 40;     // bounded (BlueVisor translators)

  // --- queue capacities ---------------------------------------------------
  std::size_t device_fifo_capacity = 32;  // shallow hw FIFO (paper premise)
  std::size_t pool_capacity = 8;          // I/O-pool entry registers per VM
  // Per-job controller setup / translation occupancy on the device, slots.
  // Paid identically by every architecture (same physical controller).
  Slot dispatch_overhead_slots = 1;

  // --- slot mapping -------------------------------------------------------
  Cycle cycles_per_slot = kDefaultCyclesPerSlot;  // 10 us slots
};

/// Issue cost for one request on the given system.
[[nodiscard]] Cycle issue_cycles(const Calibration& cal, SystemKind kind);

}  // namespace ioguard::sys
