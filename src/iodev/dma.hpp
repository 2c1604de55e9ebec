// DMA engine model: multi-channel descriptor-driven transfers with either
// fixed-priority or round-robin channel arbitration at burst granularity.
//
// The paper's virtualization driver moves payloads between memory banks and
// the I/O controller; in a deployed system that path is a DMA engine whose
// arbitration policy decides whether one VM's bulk transfer can starve
// another's. This substrate lets tests and ablations quantify that.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/engine.hpp"

namespace ioguard::iodev {

enum class DmaArbitration : std::uint8_t {
  kFixedPriority,  ///< lowest channel index wins
  kRoundRobin,     ///< rotate between back-logged channels per burst
};

/// One queued transfer.
struct DmaDescriptor {
  std::uint64_t id = 0;
  std::uint32_t channel = 0;
  std::uint32_t bytes = 0;
  std::uint64_t tag = 0;  ///< opaque caller context
};

/// A finished transfer.
struct DmaCompletion {
  DmaDescriptor descriptor;
  Cycle enqueued_at = 0;
  Cycle completed_at = 0;
};

struct DmaConfig {
  std::uint32_t channels = 4;
  std::uint32_t burst_bytes = 64;     ///< arbitration granularity
  Cycle cycles_per_burst = 8;         ///< memory-port service per burst
  Cycle setup_cycles = 12;            ///< per-descriptor programming cost
  DmaArbitration arbitration = DmaArbitration::kRoundRobin;
  std::size_t queue_depth = 16;       ///< descriptors per channel
};

class DmaEngine : public sim::Tickable {
 public:
  explicit DmaEngine(const DmaConfig& config);

  /// Queues a descriptor; false when the channel's descriptor ring is full.
  [[nodiscard]] bool submit(DmaDescriptor descriptor, Cycle now);

  using CompletionHandler = std::function<void(const DmaCompletion&)>;
  void set_completion_handler(CompletionHandler handler) {
    on_complete_ = std::move(handler);
  }

  sim::Activity tick(Cycle now) override;
  [[nodiscard]] std::string name() const override { return "dma"; }

  [[nodiscard]] std::size_t backlog(std::uint32_t channel) const;
  [[nodiscard]] bool idle() const;
  [[nodiscard]] std::uint64_t transfers_completed() const { return completed_; }
  [[nodiscard]] std::uint64_t bytes_moved() const { return bytes_moved_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }

 private:
  struct Active {
    DmaDescriptor descriptor;
    Cycle enqueued_at = 0;
    std::uint32_t bytes_left = 0;
    Cycle burst_cycles_left = 0;
    bool setup_done = false;
    Cycle setup_cycles_left = 0;
  };
  struct Channel {
    std::deque<std::pair<DmaDescriptor, Cycle>> ring;
    std::optional<Active> active;
  };

  /// Picks the channel to receive the next burst slot.
  [[nodiscard]] std::optional<std::uint32_t> arbitrate();

  /// What tick() reports: busy until every channel drains.
  [[nodiscard]] sim::Activity current_activity() const {
    return idle() ? sim::Activity::kQuiescent : sim::Activity::kBusy;
  }

  DmaConfig config_;
  std::vector<Channel> channels_;
  std::uint32_t rr_next_ = 0;
  std::optional<std::uint32_t> bus_owner_;  ///< channel holding the port
  std::uint64_t completed_ = 0;
  std::uint64_t bytes_moved_ = 0;
  std::uint64_t rejected_ = 0;
  CompletionHandler on_complete_;
};

}  // namespace ioguard::iodev
