// Global scheduler (G-Sched) of the two-layer scheduler (Sec. III-A, IV-A).
//
// The G-Sched allocates the free slots of the Time Slot Table to VMs. Each
// VM i is supported by a periodic server Gamma_i = (Pi_i, Theta_i): it is
// guaranteed at least Theta_i free slots in every Pi_i. Servers are
// scheduled by EDF over the free slots (Theorem 1), and within a granted
// slot the owning VM's shadow-register operation executes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/io_pool.hpp"
#include "sched/sbf.hpp"

namespace ioguard::core {

/// Which deadline drives the G-Sched's slot grant.
enum class GschedPolicy : std::uint8_t {
  /// EDF over server deadlines (matches the Theorem 1 analysis); ties break
  /// toward the earlier shadow (job) deadline.
  kServerEdf,
  /// EDF directly over the job deadlines in the shadow registers, gated by
  /// server budgets (closer to the paper's prose description).
  kJobEdf,
  /// No server budgets: plain global EDF over shadow registers (ablation;
  /// forfeits inter-VM bandwidth isolation).
  kGlobalEdfNoBudget,
};

class GSched {
 public:
  GSched(std::vector<sched::ServerParams> servers,
         GschedPolicy policy = GschedPolicy::kServerEdf);

  /// Picks the VM index to receive free slot `now`, among pools whose shadow
  /// register holds a pending operation: bit i of `candidates` is set iff
  /// `shadows[i].valid` (the shadow valid bits the hardware's comparator
  /// tree reads; candidates are visited in ascending VM order, so ties
  /// break as a scan of every VM would). nullopt = slot stays idle.
  /// Budget accounting (replenish at period boundaries, consume on grant)
  /// happens inside. Slots no budgeted candidate wants are reclaimed: the
  /// earliest-deadline pending shadow receives the slot without consuming
  /// budget (work-conserving slack reclamation; each VM's Theta-per-Pi
  /// guarantee is a minimum and is unaffected).
  std::optional<std::size_t> pick(Slot now,
                                  const std::vector<ShadowRegister>& shadows,
                                  std::uint64_t candidates);

  [[nodiscard]] const std::vector<sched::ServerParams>& servers() const {
    return servers_;
  }
  [[nodiscard]] GschedPolicy policy() const { return policy_; }

  /// Mixed-criticality mode switch: replaces server `i`'s parameters in
  /// place. A Theta increase credits the difference to the current budget
  /// immediately (the HI inflation must take effect mid-period); a decrease
  /// clamps the remaining budget to the new Theta. The replenishment phase
  /// (next period boundary) is untouched.
  void set_server(std::size_t i, const sched::ServerParams& params);

  /// Remaining budget of VM index `i` (test aid).
  [[nodiscard]] Slot budget(std::size_t i) const { return state_.at(i).budget; }

  /// Total slots granted to VM index `i` (budgeted + slack).
  [[nodiscard]] Slot granted(std::size_t i) const { return state_.at(i).granted; }

  /// Slots VM index `i` received through slack reclamation only.
  [[nodiscard]] Slot slack_granted(std::size_t i) const {
    return state_.at(i).slack_granted;
  }

  /// Next period boundary (budget replenishment) of VM index `i`.
  [[nodiscard]] Slot next_replenish(std::size_t i) const {
    return state_.at(i).next_replenish;
  }

  /// The earliest of every server's next boundary, kept so that pick()
  /// replenishes nothing, in O(1), before it. The dense path checks it
  /// against the minimum of next_replenish() every slot.
  [[nodiscard]] Slot next_boundary() const { return next_boundary_; }

 private:
  struct ServerState {
    Slot budget = 0;
    Slot next_replenish = 0;  ///< next period boundary
    Slot granted = 0;
    Slot slack_granted = 0;
  };

  void replenish(Slot now);

  std::vector<sched::ServerParams> servers_;
  std::vector<ServerState> state_;
  Slot next_boundary_ = kNeverSlot;  ///< min over state_[i].next_replenish
  GschedPolicy policy_;
};

}  // namespace ioguard::core
