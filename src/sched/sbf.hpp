// Supply and demand bound functions of Sec. IV.
//
//  * sbf(sigma, t)  -- Eqs. (1)-(2): minimum free slots the repeating Time
//    Slot Table supplies in any window of length t.
//  * dbf(Gamma, t)  -- Eq. (3): demand of a periodic server Gamma=(Pi,Theta).
//  * sbf(Gamma, t)  -- Eq. (8): minimum supply of the periodic resource
//    model (Shin & Lee) implementing a VM's server.
//  * dbf(tau, t)    -- Eq. (9): demand of a sporadic task tau=(T,C,D),
//    summed over a task set by DemandWalk at each of the set's demand steps.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sched/slot_table.hpp"

namespace ioguard::sched {

/// Periodic server task Gamma_i = (Pi_i, Theta_i): at least Theta free slots
/// in every window of Pi slots (Sec. IV, G-Sched).
struct ServerParams {
  Slot pi = 0;     ///< replenishment period Pi_i
  Slot theta = 0;  ///< budget Theta_i

  [[nodiscard]] double bandwidth() const {
    return static_cast<double>(theta) / static_cast<double>(pi);
  }
};

/// Supply bound function of the repeating table sigma (Eqs. (1)-(2)).
/// enum(t) rows are computed lazily (O(H) each, memoised) because admission
/// only touches a bounded set of residues t mod H. The table's worst supply
/// deficit D = max over circular windows W of F*|W| - H*free(W), computed
/// once at construction, gives the O(1) lower bound lsbf that lets
/// admission skip most of those rows.
class TableSupply {
 public:
  explicit TableSupply(const TimeSlotTable& table);

  /// sbf(sigma, t): minimum free slots in any window of length t.
  [[nodiscard]] Slot sbf(Slot t) const;

  /// max(0, ceil((F*t - D) / H)) <= sbf(t): every window of length t
  /// misses at most D of its F*t/H share, scaled by H.
  [[nodiscard]] Slot lsbf(Slot t) const;

  [[nodiscard]] Slot hyperperiod() const { return h_; }
  [[nodiscard]] Slot free_per_period() const { return f_; }

  /// Fraction of free slots F/H.
  [[nodiscard]] double bandwidth() const {
    return static_cast<double>(f_) / static_cast<double>(h_);
  }

 private:
  [[nodiscard]] Slot enum_lookup(Slot t) const;  // Eq. (1), lazy

  Slot h_ = 0;
  Slot f_ = 0;
  Slot deficit_ = 0;                          // D, see the class comment
  std::vector<Slot> prefix_;                  // free-slot prefix sums over 2H
  mutable std::vector<Slot> enum_cache_;      // kNeverSlot = not yet computed
};

/// Eq. (3): dbf(Gamma_i, t) = floor(t / Pi_i) * Theta_i.
[[nodiscard]] Slot dbf_server(const ServerParams& gamma, Slot t);

/// Eq. (8): periodic-resource supply bound function sbf(Gamma_i, t).
[[nodiscard]] Slot sbf_server(const ServerParams& gamma, Slot t);

/// The demand steps t = D_k + m*T_k of a task set below `bound`, walked in
/// ascending order with each instant visited once. dbf(t), Eq. (9) summed
/// over the set, is kept as a running sum that starts at `base`. Each task
/// has one cursor on its own steps, so memory is O(tasks) whatever the
/// bound; a cursor that would pass kNeverSlot stops there.
class DemandWalk {
 public:
  DemandWalk(const workload::TaskSet& tasks, Slot bound, Slot base = 0)
      : bound_(bound), dbf_(base) {
    cursors_.reserve(tasks.size());
    for (const auto& tau : tasks.tasks()) {
      cursors_.push_back({tau.deadline, tau.period, tau.wcet});
      next_ = std::min(next_, tau.deadline);
    }
  }

  /// Moves to the next demand step; false once none is left below the
  /// bound. Every cursor on the step adds its WCET and advances.
  bool next() {
    if (next_ >= bound_) return false;
    t_ = next_;
    next_ = kNeverSlot;
    for (auto& c : cursors_) {
      if (c.next == t_) {
        dbf_ += c.wcet;
        c.next = c.period > kNeverSlot - t_ ? kNeverSlot : t_ + c.period;
      }
      next_ = std::min(next_, c.next);
    }
    return true;
  }

  /// The current step and dbf there (plus the base).
  [[nodiscard]] Slot t() const { return t_; }
  [[nodiscard]] Slot dbf() const { return dbf_; }

 private:
  struct Cursor {
    Slot next;
    Slot period;
    Slot wcet;
  };
  std::vector<Cursor> cursors_;
  Slot bound_;
  Slot next_ = kNeverSlot;  // earliest cursor
  Slot t_ = 0;
  Slot dbf_;
};

}  // namespace ioguard::sched
