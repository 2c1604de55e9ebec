// I/O task and job model (Sec. IV of the paper).
//
// An I/O task is a sporadic task tau_k = (T_k, C_k, D_k) in *time slots*:
// it releases jobs at least T_k slots apart; each job needs C_k slots of
// I/O-device service and must finish within D_k slots of release.
// Pre-defined (P-channel) tasks are strictly periodic with a known offset;
// run-time (R-channel) tasks are sporadic.
#pragma once

#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace ioguard::workload {

/// Default slot width for the case study: 1 slot = 10 us => 100 slots per ms.
inline constexpr Slot kSlotsPerMs = 100;

/// Task provenance in the automotive case study (Sec. V-C).
enum class TaskClass : std::uint8_t {
  kSafety,     ///< Renesas automotive safety tasks (CRC, RSA32, ...)
  kFunction,   ///< EEMBC automotive function tasks (FFT, speed calc, ...)
  kSynthetic,  ///< EEMBC-derived filler controlling target utilization
};

/// Which hypervisor channel executes the task (Sec. II-B).
enum class TaskKind : std::uint8_t {
  kPredefined,  ///< periodic, loaded into the P-channel before run-time
  kRuntime,     ///< sporadic, scheduled by the R-channel at run-time
};

/// Vestal-style criticality level of a task (DESIGN.md §17).
///
/// LO tasks are guaranteed only while the system is in LO mode; after a
/// budget overrun switches a VM (or the hypervisor block) into HI mode,
/// LO-criticality R-channel work is shed and only HI tasks keep their
/// guarantees -- at the inflated budget C_hi.
enum class Criticality : std::uint8_t {
  kLo,  ///< best-effort under overload; shed on LO->HI mode switch
  kHi,  ///< guaranteed in both modes; budget inflates to C_hi in HI mode
};

[[nodiscard]] const char* to_string(TaskClass c);
[[nodiscard]] const char* to_string(TaskKind k);

/// Static description of one I/O task.
struct IoTaskSpec {
  TaskId id;
  VmId vm;
  DeviceId device;
  std::string name;
  TaskClass cls = TaskClass::kSynthetic;
  TaskKind kind = TaskKind::kRuntime;

  Slot period = 0;    ///< T_k: period / minimum inter-release separation
  Slot wcet = 0;      ///< C_k (= C_lo): worst-case I/O service demand, slots
  Slot deadline = 0;  ///< D_k: relative deadline (D_k <= T_k)
  Slot offset = 0;    ///< release offset of the first job (pre-defined tasks)

  /// Criticality level; single-criticality workloads leave every task at kLo
  /// with wcet_hi == 0, which reproduces the pre-MCS behavior exactly.
  Criticality criticality = Criticality::kLo;
  /// C_hi: pessimistic HI-mode budget (0 means "same as wcet"). Invariant:
  /// wcet <= wcet_hi whenever wcet_hi is set.
  Slot wcet_hi = 0;

  std::uint32_t payload_bytes = 0;  ///< I/O payload per job (throughput acct.)

  [[nodiscard]] double utilization() const {
    IOGUARD_DCHECK(period > 0);
    return static_cast<double>(wcet) / static_cast<double>(period);
  }
  /// Effective HI-mode budget: wcet_hi when set, else the LO budget.
  [[nodiscard]] Slot effective_wcet_hi() const {
    return wcet_hi == 0 ? wcet : wcet_hi;
  }
  [[nodiscard]] bool hi_criticality() const {
    return criticality == Criticality::kHi;
  }
  [[nodiscard]] bool constrained_deadline() const { return deadline <= period; }
  [[nodiscard]] bool implicit_deadline() const { return deadline == period; }
};

/// One released instance of a task.
struct Job {
  JobId id;
  TaskId task;
  VmId vm;
  DeviceId device;
  Slot release = 0;            ///< absolute release slot
  Slot absolute_deadline = 0;  ///< release + D_k
  Slot wcet = 0;               ///< service demand of this job, in slots
  std::uint32_t payload_bytes = 0;
};

/// A set of I/O tasks with filtered views and aggregate measures.
class TaskSet {
 public:
  TaskSet() = default;
  explicit TaskSet(std::vector<IoTaskSpec> tasks) : tasks_(std::move(tasks)) {}

  void add(IoTaskSpec spec);

  [[nodiscard]] const std::vector<IoTaskSpec>& tasks() const { return tasks_; }
  [[nodiscard]] std::size_t size() const { return tasks_.size(); }
  [[nodiscard]] bool empty() const { return tasks_.empty(); }
  [[nodiscard]] const IoTaskSpec& operator[](std::size_t i) const { return tasks_.at(i); }

  [[nodiscard]] TaskSet filter_vm(VmId vm) const;
  [[nodiscard]] TaskSet filter_device(DeviceId dev) const;
  [[nodiscard]] TaskSet filter_kind(TaskKind kind) const;

  /// Sum of C/T over all tasks.
  [[nodiscard]] double utilization() const;

  /// True when at least one task carries HI criticality or a distinct C_hi.
  [[nodiscard]] bool mixed_criticality() const;

  /// Distinct device ids present, ascending.
  [[nodiscard]] std::vector<DeviceId> devices() const;

  /// LCM of all task periods; nullopt when it exceeds `cap`.
  [[nodiscard]] std::optional<Slot> hyperperiod(Slot cap = Slot{1} << 40) const;

 private:
  std::vector<IoTaskSpec> tasks_;
};

/// lcm(a, b) when it is at most `cap`, else nullopt.
[[nodiscard]] std::optional<Slot> lcm_within(Slot a, Slot b, Slot cap);

/// Overflow-checked LCM helper (throws CheckFailure past `cap`).
[[nodiscard]] Slot checked_lcm(Slot a, Slot b, Slot cap);

}  // namespace ioguard::workload
