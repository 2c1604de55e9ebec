// Event-driven simulation engine (DESIGN.md §15).
//
// All hardware models (NoC routers, hypervisor channels, device controllers)
// are Tickables clocked by a single Engine — matching the paper's assumption
// (iii): "the system elements are synchronized by a single source of timing
// (global timer)". A timed event queue supplements the tick loop for sparse
// events (job releases); components that can predict their next interesting
// cycle hand the engine a wake hint and are parked on an indexed calendar,
// so a fully quiescent system jumps straight to the next event instead of
// crawling cycle by cycle. Results are bit-identical to dense stepping:
// parked cycles are attributed as quiescent, and hinted components must be
// no-ops on the cycles they hint away (ticking them early is always safe).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/wake_calendar.hpp"

namespace ioguard::sim {

/// What a component spent its most recent cycle on, for the engine's
/// cycle-attribution profiler (DESIGN.md §14).
enum class Activity : std::uint8_t {
  kBusy,       ///< did useful work this cycle
  kStall,      ///< had work but could not progress (backpressure, faults)
  kQuiescent,  ///< nothing to do
};

/// Interface for components clocked by the engine.
class Tickable {
 public:
  virtual ~Tickable() = default;

  /// Advances the component by one clock cycle ending at time `now` and
  /// returns what the cycle was spent on. Returning the Activity directly
  /// keeps the profiled path at one virtual call per component per cycle;
  /// components that do not track idleness return kBusy (conservative: the
  /// profiler then attributes their cycles to work, never hiding cost).
  virtual Activity tick(Cycle now) = 0;

  /// Human-readable instance name (for traces and error messages).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Optional wake hint, consulted after each tick only when
  /// provides_wake_hints() is true: the earliest future cycle at which this
  /// component next has work. Contract: every tick on a cycle in
  /// (now, next_event(now)) must be a quiescent no-op — the engine may
  /// still tick the component early (e.g. after Engine::wake), it only
  /// promises to tick it no later than the hinted cycle. Return `now + 1`
  /// (or any cycle <= now + 1) to stay in the dense per-cycle set.
  [[nodiscard]] virtual Cycle next_event(Cycle now) const { return now + 1; }

  /// Opt-in for next_event(): checked once at Engine::add so dense legacy
  /// components never pay the extra per-cycle virtual call.
  [[nodiscard]] virtual bool provides_wake_hints() const { return false; }
};

/// Per-component cycle attribution gathered by Engine profiling. The three
/// counters partition the profiled cycles exactly (parked cycles count as
/// quiescent, exactly as if the component had been ticked while idle).
struct ComponentProfile {
  std::string name;
  std::uint64_t busy_cycles = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t quiescent_cycles = 0;
  [[nodiscard]] std::uint64_t total_cycles() const {
    return busy_cycles + stall_cycles + quiescent_cycles;
  }
};

/// Single-clock engine: dense per-cycle ticking for components with no wake
/// hints, an indexed wake calendar for parked ones, and a timed event heap
/// for sparse scheduled work. When every component is parked, `now_` jumps
/// to the earliest of (next event, next calendar wake, end of run).
class Engine {
 public:
  /// Registers a component; ticked in registration order each cycle.
  /// The engine does not own the component; it must outlive the engine run.
  void add(Tickable* component);

  /// Schedules `fn` to run at absolute cycle `when` (before components tick).
  void at(Cycle when, std::function<void(Cycle)> fn);

  /// Schedules `fn` every `period` cycles starting at `start`. The handler
  /// lives in an engine-owned repeater table; each firing re-arms a small
  /// index-capturing thunk, so periodic events never copy the handler.
  void every(Cycle start, Cycle period, std::function<void(Cycle)> fn);

  /// Runs until (and including) cycle `end`.
  void run_until(Cycle end);

  /// Runs `n` further cycles.
  void run_for(Cycle n) { run_until(now_ + n); }

  /// Requests the run loop to stop after the current cycle (honored even
  /// when the cycle was reached by a calendar jump).
  void stop() { stop_requested_ = true; }

  /// Resume edge: immediately re-arms a parked component so it ticks again
  /// from the next processed cycle (external stimulus arrived before its
  /// hinted wake). No-op for active or unregistered components.
  void wake(Tickable* component);

  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] std::size_t component_count() const { return components_.size(); }
  /// Components currently parked on the wake calendar.
  [[nodiscard]] std::size_t parked_count() const {
    return components_.size() - active_count_;
  }

  /// Enables the cycle-attribution profiler: every subsequent tick counts
  /// the Activity returned by the component. Off by default — the counters
  /// cost one array increment per component per cycle.
  void enable_profiling(bool on = true);
  [[nodiscard]] bool profiling() const { return profiling_; }

  /// Per-component attribution in registration order (empty counters for
  /// cycles run before enable_profiling()).
  [[nodiscard]] std::vector<ComponentProfile> profile() const;

 private:
  struct Event {
    Cycle when;
    std::uint64_t seq;  // FIFO tie-break for same-cycle events
    std::function<void(Cycle)> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  struct Repeater {
    Cycle period;
    std::function<void(Cycle)> fn;
  };

  void schedule_repeater(std::size_t index, Cycle when);
  void park(std::size_t index, Cycle until);
  void unpark(std::size_t index);
  /// Folds pending parked time into the quiescent counters and restarts the
  /// parked clocks at now_ (profiling-boundary bookkeeping).
  void sync_parked_attribution();

  std::vector<Tickable*> components_;
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  std::vector<Repeater> repeaters_;
  Cycle now_ = 0;
  std::uint64_t seq_ = 0;
  bool stop_requested_ = false;
  bool profiling_ = false;
  /// Parallel to components_: [busy, stall, quiescent] cycle counts.
  std::vector<std::array<std::uint64_t, 3>> activity_counts_;
  /// Parallel to components_: wake-hint opt-in, parked flag, and the first
  /// cycle of the current parked stretch (for lazy quiescent attribution).
  std::vector<std::uint8_t> hinted_;
  std::vector<std::uint8_t> parked_;
  std::vector<Cycle> parked_since_;
  std::size_t active_count_ = 0;
  WakeCalendar calendar_;
  std::vector<std::uint32_t> due_scratch_;
};

}  // namespace ioguard::sim
