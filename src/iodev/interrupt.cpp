#include "iodev/interrupt.hpp"

#include "common/check.hpp"

namespace ioguard::iodev {

InterruptController::InterruptController(const InterruptConfig& config)
    : config_(config), lines_(config.lines) {
  IOGUARD_CHECK(config.lines > 0);
  IOGUARD_CHECK(config.dispatch_cycles > 0);
}

void InterruptController::raise(std::uint32_t line, Cycle now) {
  IOGUARD_CHECK(line < lines_.size());
  Line& l = lines_[line];
  if (!l.raised) {
    l.raised = true;
    l.first_raised_at = now;
    l.count = 0;
  }
  ++l.count;
}

void InterruptController::set_mask(std::uint32_t line, bool masked) {
  IOGUARD_CHECK(line < lines_.size());
  lines_[line].masked = masked;
}

bool InterruptController::masked(std::uint32_t line) const {
  IOGUARD_CHECK(line < lines_.size());
  return lines_[line].masked;
}

bool InterruptController::pending() const {
  if (in_flight_) return true;
  for (const auto& l : lines_)
    if (l.raised) return true;  // masked-but-raised still counts as pending
  return false;
}

sim::Activity InterruptController::tick(Cycle now) {
  if (in_flight_) {
    if (now < dispatch_done_at_) return current_activity();
    Line& l = lines_[*in_flight_];
    InterruptEvent e;
    e.line = *in_flight_;
    e.raised_count = l.count;
    e.first_raised_at = l.first_raised_at;
    e.delivered_at = now;
    l.raised = false;
    l.count = 0;
    in_flight_.reset();
    ++delivered_;
    if (handler_) handler_(e);
    return current_activity();
  }

  // Highest priority = lowest line index among raised & unmasked lines whose
  // coalescing window has elapsed.
  for (std::uint32_t i = 0; i < lines_.size(); ++i) {
    Line& l = lines_[i];
    if (!l.raised || l.masked) continue;
    if (config_.coalesce_window > 0 &&
        now < l.first_raised_at + config_.coalesce_window)
      continue;
    in_flight_ = i;
    dispatch_done_at_ = now + config_.dispatch_cycles;
    return current_activity();
  }
  return current_activity();
}

}  // namespace ioguard::iodev
