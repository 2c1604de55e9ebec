#include "iodev/dma.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ioguard::iodev {

DmaEngine::DmaEngine(const DmaConfig& config)
    : config_(config), channels_(config.channels) {
  IOGUARD_CHECK(config.channels > 0);
  IOGUARD_CHECK(config.burst_bytes > 0);
  IOGUARD_CHECK(config.cycles_per_burst > 0);
  IOGUARD_CHECK(config.queue_depth > 0);
}

bool DmaEngine::submit(DmaDescriptor descriptor, Cycle now) {
  IOGUARD_CHECK(descriptor.channel < channels_.size());
  IOGUARD_CHECK(descriptor.bytes > 0);
  Channel& ch = channels_[descriptor.channel];
  if (ch.ring.size() >= config_.queue_depth) {
    ++rejected_;
    return false;
  }
  ch.ring.emplace_back(descriptor, now);
  return true;
}

std::size_t DmaEngine::backlog(std::uint32_t channel) const {
  IOGUARD_CHECK(channel < channels_.size());
  const Channel& ch = channels_[channel];
  return ch.ring.size() + (ch.active ? 1 : 0);
}

bool DmaEngine::idle() const {
  for (const auto& ch : channels_)
    if (!ch.ring.empty() || ch.active) return false;
  return true;
}

std::optional<std::uint32_t> DmaEngine::arbitrate() {
  auto has_work = [&](std::uint32_t c) {
    const Channel& ch = channels_[c];
    return ch.active.has_value() || !ch.ring.empty();
  };
  switch (config_.arbitration) {
    case DmaArbitration::kFixedPriority:
      for (std::uint32_t c = 0; c < channels_.size(); ++c)
        if (has_work(c)) return c;
      return std::nullopt;
    case DmaArbitration::kRoundRobin:
      for (std::uint32_t k = 0; k < channels_.size(); ++k) {
        const std::uint32_t c =
            (rr_next_ + k) % static_cast<std::uint32_t>(channels_.size());
        if (has_work(c)) {
          rr_next_ = (c + 1) % static_cast<std::uint32_t>(channels_.size());
          return c;
        }
      }
      return std::nullopt;
  }
  return std::nullopt;
}

sim::Activity DmaEngine::tick(Cycle now) {
  // Arbitration happens at burst boundaries: once a burst starts, the memory
  // port belongs to that channel until the burst's cycles elapse.
  if (!bus_owner_) {
    const auto winner = arbitrate();
    if (!winner) return current_activity();
    bus_owner_ = winner;
    Channel& ch = channels_[*winner];
    if (!ch.active) {
      auto [desc, enq] = ch.ring.front();
      ch.ring.pop_front();
      Active a;
      a.descriptor = desc;
      a.enqueued_at = enq;
      a.bytes_left = desc.bytes;
      a.setup_cycles_left = config_.setup_cycles;
      ch.active = a;
    }
    Active& a = *ch.active;
    if (a.setup_done || a.setup_cycles_left == 0) {
      a.setup_done = true;
      a.burst_cycles_left = config_.cycles_per_burst;
    }
  }

  Channel& ch = channels_[*bus_owner_];
  IOGUARD_CHECK(ch.active.has_value());
  Active& a = *ch.active;

  if (!a.setup_done) {
    if (--a.setup_cycles_left == 0) a.setup_done = true;
    if (a.setup_done) a.burst_cycles_left = config_.cycles_per_burst;
    return current_activity();
  }

  IOGUARD_CHECK(a.burst_cycles_left > 0);
  if (--a.burst_cycles_left == 0) {
    const std::uint32_t moved = std::min(a.bytes_left, config_.burst_bytes);
    a.bytes_left -= moved;
    bytes_moved_ += moved;
    if (a.bytes_left == 0) {
      DmaCompletion done;
      done.descriptor = a.descriptor;
      done.enqueued_at = a.enqueued_at;
      done.completed_at = now + 1;
      ch.active.reset();
      ++completed_;
      if (on_complete_) on_complete_(done);
    }
    bus_owner_.reset();  // re-arbitrate at the next burst boundary
  }
  return current_activity();
}

}  // namespace ioguard::iodev
