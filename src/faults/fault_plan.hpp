// Fault plans: a *seeded schedule* of injectable events, and the resilience
// policy knobs the architecture uses to survive them.
//
// A FaultPlan is pure configuration -- which fault kinds fire, at what
// per-opportunity rate, with what magnitude. All randomness lives in the
// FaultInjector (injector.hpp), which derives its streams from
// (plan.seed, trial seed, fault kind, site); the plan itself is value-
// comparable and round-trips through a compact spec string so a plan can be
// passed on the command line (`--faults=device-stall` or
// `--faults="seed=7;stall:rate=0.002,param=12;flit:rate=0.001"`) and logged.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace ioguard::faults {

/// The injectable event taxonomy (DESIGN.md §11).
enum class FaultKind : std::uint8_t {
  kDeviceStall = 0,   ///< device stops draining for `param` slots
  kDroppedFrame,      ///< completed R-channel frame is lost in flight
  kCorruptFrame,      ///< completed R-channel frame arrives corrupted
  kLinkFlitLoss,      ///< NoC link eats a packet (head flit loss)
  kTranslatorOverrun, ///< translation takes `param` cycles beyond its WCET
  kSpuriousInterrupt, ///< hypervisor burns a free slot on a phantom IRQ
};

inline constexpr std::size_t kFaultKindCount = 6;

[[nodiscard]] const char* to_string(FaultKind kind);
/// The short token used in plan spec strings ("stall", "drop", ...).
[[nodiscard]] const char* spec_token(FaultKind kind);

[[nodiscard]] constexpr std::array<FaultKind, kFaultKindCount>
all_fault_kinds() {
  return {FaultKind::kDeviceStall,       FaultKind::kDroppedFrame,
          FaultKind::kCorruptFrame,      FaultKind::kLinkFlitLoss,
          FaultKind::kTranslatorOverrun, FaultKind::kSpuriousInterrupt};
}

/// One line of a plan: fire `kind` with probability `rate` per opportunity;
/// `param` scales the fault (stall duration in slots, overrun in cycles).
struct FaultSpec {
  FaultKind kind = FaultKind::kDeviceStall;
  double rate = 0.0;          ///< per-opportunity probability, in [0, 1]
  std::uint64_t param = 0;    ///< 0 = kind-specific default

  friend bool operator==(const FaultSpec& a, const FaultSpec& b) {
    return a.kind == b.kind && a.rate == b.rate && a.param == b.param;
  }
};

/// Kind-specific default magnitudes, applied when FaultSpec::param == 0.
[[nodiscard]] std::uint64_t default_param(FaultKind kind);

/// A deterministic fault schedule. Empty plan (no events) == fault-free
/// baseline: the runner then skips injector construction entirely, so the
/// simulation is *bit-identical* to a build without this subsystem.
struct FaultPlan {
  std::uint64_t seed = 1;  ///< plan-level seed, mixed with the trial seed
  std::vector<FaultSpec> events;

  [[nodiscard]] bool empty() const { return events.empty(); }
  /// Rate for `kind`, 0 when the plan does not mention it.
  [[nodiscard]] double rate(FaultKind kind) const;
  /// Effective param for `kind` (default_param() when unset or unlisted).
  [[nodiscard]] std::uint64_t param(FaultKind kind) const;

  /// Canonical spec string, parseable by parse(). Empty plan -> "none".
  [[nodiscard]] std::string spec_string() const;

  /// Parses `--faults=` values: either a canned plan name (see
  /// canned_plan_names()) or a spec "[seed=N;]kind:rate=R[,param=P];...".
  /// Duplicate kinds and rates outside [0, 1] are errors.
  [[nodiscard]] static StatusOr<FaultPlan> parse(std::string_view spec);

  /// Canned plan by name; kNotFound for unknown names.
  [[nodiscard]] static StatusOr<FaultPlan> canned(std::string_view name);
  [[nodiscard]] static std::vector<std::string> canned_plan_names();

  friend bool operator==(const FaultPlan& a, const FaultPlan& b) {
    return a.seed == b.seed && a.events == b.events;
  }
};

/// Resilience policy: how hard the virtualization driver / hypervisor fight
/// back. Validated by TrialConfig::validated() and verify_resilience().
struct ResilienceConfig {
  /// Hypervisor watchdog: abort an in-flight R-channel op after the device
  /// has been stalled under it for this many slots.
  Slot watchdog_timeout_slots = 8;
  /// Bounded retry: a faulted job is re-submitted at most this many times.
  std::uint32_t max_retries = 2;
  /// Exponential backoff base: retry k waits base << (k-1) slots.
  Slot retry_backoff_base_slots = 1;
  /// Graceful degradation: after this many faults on one VM, shed its
  /// R-channel queue and reject new jobs (P-channel slots are never touched).
  std::uint32_t degradation_threshold = 32;
  bool degradation_enabled = true;

  friend bool operator==(const ResilienceConfig& a, const ResilienceConfig& b) {
    return a.watchdog_timeout_slots == b.watchdog_timeout_slots &&
           a.max_retries == b.max_retries &&
           a.retry_backoff_base_slots == b.retry_backoff_base_slots &&
           a.degradation_threshold == b.degradation_threshold &&
           a.degradation_enabled == b.degradation_enabled;
  }
};

/// Fault/resilience outcome of one trial; every field is 0 when the plan is
/// empty, so zero-fault TrialResults compare equal to pre-fault baselines.
/// Each I/O-GUARD device manager and each baseline FIFO controller counts
/// into its own; the back-end sums them once (operator+=).
struct FaultCounters {
  std::uint64_t injected_total = 0;      ///< faults fired, all kinds
  std::uint64_t watchdog_aborts = 0;     ///< hypervisor watchdog recoveries
  std::uint64_t retries = 0;             ///< retry submissions scheduled
  std::uint64_t retries_exhausted = 0;   ///< jobs given up (attempts/deadline)
  std::uint32_t max_retry_attempt = 0;   ///< never exceeds max_retries
  std::uint64_t jobs_shed = 0;           ///< degradation queue sheds
  std::uint64_t degraded_vms = 0;        ///< VMs in degraded mode at end
  std::uint64_t frame_faults = 0;        ///< dropped/corrupt response frames
  std::uint64_t stalled_slots = 0;       ///< device-stall slots served
  std::uint64_t spurious_irq_slots = 0;  ///< free slots burned on phantom IRQs
  std::uint64_t transit_drops = 0;       ///< requests eaten on the interconnect
  std::uint64_t fifo_frames_lost = 0;    ///< baseline FIFOs: unrecovered loss
  std::uint64_t fifo_stalled_slots = 0;  ///< baseline FIFOs: stall slots

  /// Adds every count of `other`; max_retry_attempt keeps the larger.
  FaultCounters& operator+=(const FaultCounters& other);
};

}  // namespace ioguard::faults
