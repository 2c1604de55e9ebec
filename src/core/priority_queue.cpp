#include "core/priority_queue.hpp"

#include <tuple>

#include "common/check.hpp"

namespace ioguard::core {

namespace {

/// EDF total order of the comparator tree, ties broken toward the lower
/// handle (the scan kept the first entry it saw among equal keys).
[[nodiscard]] std::tuple<Slot, Slot, std::uint64_t, EntryHandle> order_key(
    const ParamSlot& p, EntryHandle h) {
  return {p.absolute_deadline, p.release, p.job.value, h};
}

}  // namespace

HwPriorityQueue::HwPriorityQueue(std::size_t capacity) : entries_(capacity) {
  IOGUARD_CHECK(capacity > 0);
}

std::optional<EntryHandle> HwPriorityQueue::insert(const workload::Job& job) {
  if (full()) return std::nullopt;
  for (std::size_t k = 0; k < entries_.size(); ++k) {
    const auto h =
        static_cast<EntryHandle>((next_free_hint_ + k) % entries_.size());
    if (!entries_[h].valid) {
      entries_[h].valid = true;
      entries_[h].slot = ParamSlot{job.absolute_deadline, job.wcet, job.wcet,
                                   job.release, job.vm, job.task, job.id,
                                   job.device, job.payload_bytes};
      next_free_hint_ = (h + 1) % static_cast<std::uint32_t>(entries_.size());
      ++live_;
      if (live_ == 1) {
        cached_best_ = h;
        cache_valid_ = true;
      } else if (cache_valid_ &&
                 order_key(entries_[h].slot, h) <
                     order_key(entries_[cached_best_].slot, cached_best_)) {
        cached_best_ = h;
      }
      return h;
    }
  }
  return std::nullopt;  // unreachable given the full() guard
}

std::optional<EntryHandle> HwPriorityQueue::peek_earliest() const {
  if (live_ == 0) return std::nullopt;
  if (!cache_valid_) {
    EntryHandle best = kInvalidHandle;
    std::size_t seen = 0;
    for (std::size_t h = 0; h < entries_.size() && seen < live_; ++h) {
      if (!entries_[h].valid) continue;
      ++seen;
      const auto eh = static_cast<EntryHandle>(h);
      if (best == kInvalidHandle ||
          order_key(entries_[h].slot, eh) <
              order_key(entries_[best].slot, best))
        best = eh;
    }
    cached_best_ = best;
    cache_valid_ = true;
  }
  return cached_best_;
}

bool HwPriorityQueue::valid(EntryHandle h) const {
  return h < entries_.size() && entries_[h].valid;
}

const ParamSlot& HwPriorityQueue::params(EntryHandle h) const {
  IOGUARD_CHECK(valid(h));
  return entries_[h].slot;
}

bool HwPriorityQueue::consume_one_slot(EntryHandle h) {
  IOGUARD_CHECK(valid(h));
  ParamSlot& p = entries_[h].slot;
  IOGUARD_CHECK(p.remaining > 0);
  return --p.remaining == 0;
}

void HwPriorityQueue::remove(EntryHandle h) {
  IOGUARD_CHECK(valid(h));
  entries_[h].valid = false;
  --live_;
  if (cache_valid_ && h == cached_best_) cache_valid_ = false;
}

std::vector<EntryHandle> HwPriorityQueue::live_handles() const {
  std::vector<EntryHandle> out;
  for (std::size_t h = 0; h < entries_.size(); ++h)
    if (entries_[h].valid) out.push_back(static_cast<EntryHandle>(h));
  return out;
}

}  // namespace ioguard::core
