#include "sched/sbf.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ioguard::sched {

TableSupply::TableSupply(const TimeSlotTable& table)
    : h_(table.hyperperiod()), f_(table.free_slots()) {
  // prefix_[i] = number of free slots in [0, i) of sigma* repeated twice,
  // so a window [s, s+t) with s < H, t <= H never needs an explicit wrap.
  //
  // The deficit of window [i, j) is P(j) - P(i) with P(k) = F*k -
  // H*prefix_[k]. A full period has deficit F*H - H*F = 0, so P repeats with
  // period H and the worst window, of any length, runs from argmin P to
  // argmax P.
  const auto& raw = table.raw();
  const auto n = static_cast<std::size_t>(h_);
  prefix_.resize(2 * n + 1, 0);
  SlotDelta lo = 0;
  SlotDelta hi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prefix_[i + 1] = prefix_[i] + (raw[i] == TimeSlotTable::kFree ? 1 : 0);
    const auto p = static_cast<SlotDelta>(f_ * (i + 1)) -
                   static_cast<SlotDelta>(h_ * prefix_[i + 1]);
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  for (std::size_t i = 1; i <= n; ++i) prefix_[n + i] = f_ + prefix_[i];
  deficit_ = static_cast<Slot>(hi - lo);
  enum_cache_.assign(n, kNeverSlot);
}

Slot TableSupply::enum_lookup(Slot t) const {
  IOGUARD_DCHECK(t < h_);
  if (t == 0) return 0;
  Slot& cached = enum_cache_[static_cast<std::size_t>(t)];
  if (cached != kNeverSlot) return cached;
  Slot best = kNeverSlot;
  for (Slot s = 0; s < h_; ++s) {
    const Slot got = prefix_[static_cast<std::size_t>(s + t)] -
                     prefix_[static_cast<std::size_t>(s)];
    best = std::min(best, got);
    if (best == 0) break;  // cannot go lower
  }
  cached = best;
  return best;
}

Slot TableSupply::sbf(Slot t) const {
  if (t == 0) return 0;
  if (t < h_) return enum_lookup(t);
  // Eq. (2): sbf(t) = sbf(t mod H) + floor(t / H) * F.
  return enum_lookup(t % h_) + (t / h_) * f_;
}

Slot TableSupply::lsbf(Slot t) const {
  // F*t in 128 bits: Theorem 2's check bound grows as 1/c.
  const __uint128_t share = static_cast<__uint128_t>(f_) * t;
  if (share <= deficit_) return 0;
  return static_cast<Slot>((share - deficit_ + h_ - 1) / h_);
}

Slot dbf_server(const ServerParams& gamma, Slot t) {
  IOGUARD_CHECK(gamma.pi > 0);
  return (t / gamma.pi) * gamma.theta;
}

Slot sbf_server(const ServerParams& gamma, Slot t) {
  IOGUARD_CHECK(gamma.pi > 0 && gamma.theta > 0 && gamma.theta <= gamma.pi);
  // Eq. (8) with t' = t - (Pi - Theta);
  // theta = max(t' - Pi*floor(t'/Pi) - (Pi - Theta), 0).
  const Slot gap = gamma.pi - gamma.theta;
  if (t < gap) return 0;  // t' < 0
  const Slot tp = t - gap;
  const Slot full = (tp / gamma.pi) * gamma.theta;
  const Slot rem = tp % gamma.pi;
  const Slot partial = rem > gap ? rem - gap : 0;
  return full + partial;
}

}  // namespace ioguard::sched
