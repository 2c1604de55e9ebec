#include "core/gsched.hpp"

#include <algorithm>
#include <bit>
#include <tuple>

#include "common/check.hpp"

namespace ioguard::core {

GSched::GSched(std::vector<sched::ServerParams> servers, GschedPolicy policy)
    : servers_(std::move(servers)), state_(servers_.size()), policy_(policy) {
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    IOGUARD_CHECK(servers_[i].pi > 0);
    IOGUARD_CHECK(servers_[i].theta <= servers_[i].pi);
    state_[i].budget = servers_[i].theta;
    state_[i].next_replenish = servers_[i].pi;
    next_boundary_ = std::min(next_boundary_, servers_[i].pi);
  }
}

void GSched::set_server(std::size_t i, const sched::ServerParams& params) {
  IOGUARD_CHECK(i < servers_.size());
  IOGUARD_CHECK(params.pi == servers_[i].pi);  // period is fixed by admission
  IOGUARD_CHECK(params.theta <= params.pi);
  const Slot old_theta = servers_[i].theta;
  if (params.theta > old_theta) {
    state_[i].budget += params.theta - old_theta;
  } else {
    state_[i].budget = std::min(state_[i].budget, params.theta);
  }
  servers_[i] = params;
}

void GSched::replenish(Slot now) {
  if (now < next_boundary_) return;  // no server's period ended yet
  Slot boundary = kNeverSlot;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    // Catch up every period boundary at or before `now` at once: a skipped
    // stretch may span several periods, and the budget refills either way.
    ServerState& s = state_[i];
    if (now >= s.next_replenish) {
      const Slot pi = servers_[i].pi;
      s.next_replenish += ((now - s.next_replenish) / pi + 1) * pi;
      s.budget = servers_[i].theta;
    }
    boundary = std::min(boundary, s.next_replenish);
  }
  next_boundary_ = boundary;
}

std::optional<std::size_t> GSched::pick(
    Slot now, const std::vector<ShadowRegister>& shadows,
    std::uint64_t candidates) {
  IOGUARD_CHECK(shadows.size() == servers_.size());
  replenish(now);

  std::optional<std::size_t> best;
  // Selection keys, smaller = higher priority.
  auto key = [&](std::size_t i) {
    const Slot server_deadline = state_[i].next_replenish;
    const Slot job_deadline = shadows[i].absolute_deadline;
    switch (policy_) {
      case GschedPolicy::kServerEdf:
        return std::tuple(server_deadline, job_deadline, static_cast<Slot>(i));
      case GschedPolicy::kJobEdf:
        return std::tuple(job_deadline, server_deadline, static_cast<Slot>(i));
      case GschedPolicy::kGlobalEdfNoBudget:
        return std::tuple(job_deadline, Slot{0}, static_cast<Slot>(i));
    }
    return std::tuple(kNeverSlot, kNeverSlot, static_cast<Slot>(i));
  };

  // The running winner's key is cached so each candidate costs one key
  // computation, not two (pick() runs once per free slot per device).
  std::tuple<Slot, Slot, Slot> best_key{};
  for (std::uint64_t m = candidates; m != 0; m &= m - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(m));
    IOGUARD_DCHECK(i < shadows.size() && shadows[i].valid);
    if (policy_ != GschedPolicy::kGlobalEdfNoBudget &&
        state_[i].budget == 0)
      continue;
    const auto k = key(i);
    if (!best || k < best_key) {
      best = i;
      best_key = k;
    }
  }

  if (best) {
    if (policy_ != GschedPolicy::kGlobalEdfNoBudget) {
      IOGUARD_CHECK(state_[*best].budget > 0);
      --state_[*best].budget;
    }
    ++state_[*best].granted;
    return best;
  }

  // Slack reclamation: no budgeted candidate, but the slot would otherwise
  // idle -- hand it to the earliest-deadline pending operation for free.
  Slot best_deadline = kNeverSlot;
  for (std::uint64_t m = candidates; m != 0; m &= m - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(m));
    if (!best || shadows[i].absolute_deadline < best_deadline) {
      best = i;
      best_deadline = shadows[i].absolute_deadline;
    }
  }
  if (best) {
    ++state_[*best].granted;
    ++state_[*best].slack_granted;
  }
  return best;
}

}  // namespace ioguard::core
