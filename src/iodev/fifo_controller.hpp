// Legacy FIFO I/O controller (slot-level behavioural model).
//
// "The implementation of traditional I/O controllers relies on FIFO queues,
// which forbids context switches at the hardware level" (Sec. I). Jobs are
// served strictly in arrival order and non-preemptively: once started, a job
// occupies the device until its service demand is exhausted. This is the
// I/O-side behaviour of BS|Legacy, BS|RT-XEN (backend) and BS|BV, whose
// device back-end is a FifoBank: one controller per device.
#pragma once

#include <algorithm>
#include <deque>
#include <optional>
#include <vector>

#include "common/jitter.hpp"
#include "common/types.hpp"
#include "faults/injector.hpp"
#include "workload/task.hpp"

namespace ioguard::iodev {

/// A queued request: which job wants how many device slots.
struct Request {
  workload::Job job;
  Slot enqueued_at = 0;
};

/// Completion record produced when a job's last slot of service finishes.
struct Completion {
  workload::Job job;
  Slot enqueued_at = 0;
  Slot completed_at = 0;  ///< slot index after which the job is done
  [[nodiscard]] bool missed() const {
    return completed_at > job.absolute_deadline;
  }
};

class FifoController {
 public:
  /// `queue_capacity` models the hardware FIFO depth; pushes beyond it are
  /// rejected (counted, job lost => deadline miss at the system layer).
  /// `dispatch_overhead_slots` is the per-job controller setup / framing
  /// occupancy added to the payload service time (same physical device cost
  /// the I/O-GUARD virtualization driver pays).
  explicit FifoController(std::size_t queue_capacity = 64,
                          Slot dispatch_overhead_slots = 0);

  /// Enqueues a request at slot `now`; false when the FIFO is full.
  [[nodiscard]] bool enqueue(const workload::Job& job, Slot now);

  /// Advances one slot; returns the completion finishing in this slot, if any.
  std::optional<Completion> tick_slot(Slot now);

  [[nodiscard]] Slot busy_slots() const { return busy_slots_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }
  [[nodiscard]] bool idle() const { return queue_.empty() && !current_; }

  /// Telemetry counters: completed jobs and their cumulative payload.
  [[nodiscard]] std::uint64_t jobs_completed() const { return jobs_completed_; }
  [[nodiscard]] std::uint64_t bytes_completed() const {
    return bytes_completed_;
  }

  /// Attaches a fault injector (not owned); `site` keys this controller's
  /// fault RNG streams. Legacy controllers have *no* resilience: a stall
  /// just blocks the head of line, a lost frame is simply gone -- the
  /// contrast the I/O-GUARD watchdog/retry path is measured against.
  void set_fault_injector(faults::FaultInjector* injector, std::size_t site) {
    injector_ = injector;
    fault_site_ = site;
  }

  /// Stall slots and unrecovered lost frames, as fifo_stalled_slots and
  /// fifo_frames_lost (every other field stays 0).
  [[nodiscard]] const faults::FaultCounters& fault_counters() const {
    return faults_;
  }

  /// Attaches a jitter recorder (not owned; nullptr detaches). Completions
  /// record their deviation from release + wcet + dispatch overhead (the
  /// unloaded service demand) on the "fifo" channel.
  void set_jitter_recorder(JitterRecorder* recorder) { jitter_ = recorder; }

  // ---- Cycle attribution (DESIGN.md §14): busy (busy_slots()) + stall +
  // quiescent partition the ticks exactly. -------------------------------
  /// Slots lost to an injected device stall while wedged or blocked.
  [[nodiscard]] std::uint64_t profile_stall_slots() const {
    return profile_stall_slots_;
  }
  /// Slots with an empty FIFO and no job in service.
  [[nodiscard]] std::uint64_t profile_quiescent_slots() const {
    return profile_quiescent_slots_;
  }

  // ---- Event-driven runner support (DESIGN.md §15). ----------------------
  /// Earliest slot >= `from` at which ticking could do anything: `from`
  /// while work is queued or in service, kNeverSlot when idle. With a fault
  /// injector attached every slot draws stall RNG, so the hint degenerates
  /// to `from` (faulted runs never skip).
  [[nodiscard]] Slot next_busy_slot(Slot from) const {
    if (injector_ != nullptr) return from;
    return idle() ? kNeverSlot : from;
  }

  /// Batch attribution for slots the runner proved quiescent and skipped.
  void note_skipped_slots(std::uint64_t n) { profile_quiescent_slots_ += n; }

 private:
  struct Active {
    Request request;
    Slot remaining;
  };

  std::size_t capacity_;
  Slot dispatch_overhead_;
  std::deque<Request> queue_;
  std::optional<Active> current_;
  Slot busy_slots_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t bytes_completed_ = 0;
  faults::FaultInjector* injector_ = nullptr;
  std::size_t fault_site_ = 0;
  Slot stall_remaining_ = 0;
  faults::FaultCounters faults_;
  JitterRecorder* jitter_ = nullptr;
  std::uint64_t profile_stall_slots_ = 0;
  std::uint64_t profile_quiescent_slots_ = 0;
};

/// The baselines' device back-end: one FifoController per device, driven
/// through the calls the runner makes on core::Hypervisor, so one slot loop
/// serves both back-ends.
class FifoBank {
 public:
  /// `devices` controllers of `queue_capacity` entries; device d is fault
  /// site d of `injector` (not owned; nullptr = fault-free).
  FifoBank(std::size_t devices, std::size_t queue_capacity,
           Slot dispatch_overhead_slots,
           faults::FaultInjector* injector = nullptr);

  /// Enqueues `job` at its device's controller; false when that FIFO is full.
  [[nodiscard]] bool submit(const workload::Job& job, Slot now) {
    return fifos_[job.device.value].enqueue(job, now);
  }

  /// Advances every controller one slot, in device order; completions are
  /// appended to `out`.
  void tick_slot(Slot now, std::vector<Completion>& out) {
    for (auto& f : fifos_)
      if (auto done = f.tick_slot(now)) out.push_back(*done);
  }

  /// Earliest slot >= `from` at which any controller has work.
  [[nodiscard]] Slot next_busy_slot(Slot from) const {
    Slot wake = kNeverSlot;
    for (const auto& f : fifos_) wake = std::min(wake, f.next_busy_slot(from));
    return wake;
  }

  /// Batch-attributes `n` skipped slots as quiescent on every controller.
  void note_skipped_slots(std::uint64_t n) {
    for (auto& f : fifos_) f.note_skipped_slots(n);
  }

  /// The baselines have no P-channel: every job goes through a FIFO.
  [[nodiscard]] static bool pchannel_task(TaskId /*task*/) { return false; }

  /// Attaches one jitter recorder to every controller (not owned).
  void set_jitter_recorder(JitterRecorder* recorder) {
    for (auto& f : fifos_) f.set_jitter_recorder(recorder);
  }

  /// Device `device`'s controller (named like Hypervisor::manager).
  [[nodiscard]] const FifoController& manager(DeviceId device) const {
    return fifos_.at(device.value);
  }
  [[nodiscard]] std::size_t device_count() const { return fifos_.size(); }

  /// Every controller's fault counters, summed.
  [[nodiscard]] faults::FaultCounters fault_counters() const {
    faults::FaultCounters total;
    for (const auto& f : fifos_) total += f.fault_counters();
    return total;
  }

 private:
  std::vector<FifoController> fifos_;  // index = DeviceId
};

}  // namespace ioguard::iodev
