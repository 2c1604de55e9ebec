// Interrupt controller model with fixed priorities, masking and optional
// coalescing.
//
// The legacy I/O path signals completions through interrupts whose delivery
// latency adds to the response path; coalescing (batching completions to cut
// CPU overhead) trades latency for throughput -- one of the software-stack
// effects the paper's hardware response channel eliminates.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/engine.hpp"

namespace ioguard::iodev {

struct InterruptConfig {
  std::size_t lines = 16;
  Cycle dispatch_cycles = 30;     ///< controller prioritization + CPU entry
  Cycle coalesce_window = 0;      ///< 0 = immediate; else batch window
};

/// One delivered interrupt.
struct InterruptEvent {
  std::uint32_t line = 0;
  std::uint64_t raised_count = 1;  ///< events folded by coalescing
  Cycle first_raised_at = 0;
  Cycle delivered_at = 0;

  [[nodiscard]] Cycle latency() const { return delivered_at - first_raised_at; }
};

class InterruptController : public sim::Tickable {
 public:
  explicit InterruptController(const InterruptConfig& config);

  /// Raises line `line` at time `now` (edge; multiple raises fold).
  void raise(std::uint32_t line, Cycle now);

  void set_mask(std::uint32_t line, bool masked);
  [[nodiscard]] bool masked(std::uint32_t line) const;

  using Handler = std::function<void(const InterruptEvent&)>;
  void set_handler(Handler handler) { handler_ = std::move(handler); }

  sim::Activity tick(Cycle now) override;
  [[nodiscard]] std::string name() const override { return "intc"; }

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] bool pending() const;

 private:
  struct Line {
    bool masked = false;
    bool raised = false;
    std::uint64_t count = 0;
    Cycle first_raised_at = 0;
  };

  /// What tick() reports: busy while a line is pending or dispatching.
  [[nodiscard]] sim::Activity current_activity() const {
    return pending() || in_flight_ ? sim::Activity::kBusy
                                   : sim::Activity::kQuiescent;
  }

  InterruptConfig config_;
  std::vector<Line> lines_;
  std::optional<std::uint32_t> in_flight_;  ///< line being dispatched
  Cycle dispatch_done_at_ = 0;
  std::uint64_t delivered_ = 0;
  Handler handler_;
};

}  // namespace ioguard::iodev
