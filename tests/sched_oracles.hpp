// Reference functions the scheduling tests check the analysis against: the
// closed form of one task's demand bound (Eq. 9), a non-preemptive FIFO
// simulator (the legacy I/O-controller behaviour the paper identifies as the
// hardware-level predictability problem) and an always-available supply.
// No program calls them, so they live with the tests.
#pragma once

#include <cstddef>
#include <optional>
#include <queue>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sched/edf_ref.hpp"
#include "workload/task.hpp"

namespace ioguard::sched {

/// Eq. (9): dbf(tau_k, t) = (floor((t - D_k)/T_k) + 1) * C_k for t >= D_k,
/// else 0.
inline Slot dbf_sporadic(Slot period, Slot wcet, Slot deadline, Slot t) {
  IOGUARD_CHECK(period > 0 && wcet > 0 && deadline > 0);
  if (t < deadline) return 0;
  return ((t - deadline) / period + 1) * wcet;
}

/// Supply that is always available (dedicated resource).
inline SupplyFn full_supply() {
  return [](Slot) { return true; };
}

/// Simulates a non-preemptive FIFO queue: jobs are served in arrival order;
/// once started a job occupies every supplied slot until it finishes. Misses
/// are counted as simulate_edf counts them: a job unfinished at `horizon` is
/// a miss only when its deadline fell inside the simulated window.
inline RefSimResult simulate_fifo(const std::vector<workload::Job>& trace,
                                  const SupplyFn& supply, Slot horizon) {
  RefSimResult result;
  for (const auto& j : trace)
    result.jobs.push_back({j.id, j.task, j.release, j.absolute_deadline});
  std::queue<std::size_t> fifo;
  std::size_t next = 0;
  std::optional<std::size_t> current;
  Slot remaining = 0;
  for (Slot t = 0; t < horizon; ++t) {
    while (next < trace.size() && trace[next].release <= t) fifo.push(next++);
    if (!supply(t)) continue;
    if (!current && !fifo.empty()) {
      current = fifo.front();
      fifo.pop();
      remaining = trace[*current].wcet;
    }
    if (!current) continue;
    ++result.busy_slots;
    if (--remaining == 0) {
      result.jobs[*current].completion = t + 1;
      current.reset();
    }
  }
  for (const auto& o : result.jobs) {
    const bool unfinished = o.completion == kNeverSlot;
    if (unfinished ? o.absolute_deadline <= horizon : o.missed())
      ++result.misses;
  }
  return result;
}

}  // namespace ioguard::sched
