// Pre-defined I/O task channel (P-channel, Sec. III-A).
//
// "The memory banks store the pre-defined I/O tasks and the corresponding
// timing information ..., which are loaded during system initialization.
// During system execution, the executor synchronizes with a global timer and
// then compares the synchronized results with the time slot table. Once the
// system executes at a starting time point of a pre-loaded I/O task, the
// executor loads this task to the connected virtualization driver."
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/jitter.hpp"
#include "iodev/fifo_controller.hpp"  // for iodev::Completion
#include "sched/slot_table.hpp"
#include "workload/task.hpp"

namespace ioguard::core {

class PChannel {
 public:
  /// `predefined` are the pre-loaded tasks of this device; `table` is the
  /// offline-built Time Slot Table covering exactly those tasks.
  PChannel(workload::TaskSet predefined, sched::TimeSlotTable table);

  /// Executes slot `now` if the table reserves it for a pre-defined task.
  /// Returns the completion when this slot finishes a job. Returns nullopt
  /// (and consumes nothing) on free slots -- the caller then offers the slot
  /// to the R-channel.
  std::optional<iodev::Completion> execute_slot(Slot now, bool& slot_used);

  /// Is absolute slot `now` free for the R-channel?
  [[nodiscard]] bool slot_is_free(Slot now) const {
    return table_.raw()[phase_of(now)] == sched::TimeSlotTable::kFree;
  }

  /// Earliest absolute slot >= `from` that sigma* reserves (kNeverSlot when
  /// the table is all-free). Wake hint for the event-driven runner: between
  /// reserved slots an otherwise-idle channel executes nothing, so those
  /// slots can be skipped and batch-attributed. Answered at once when `from`
  /// itself is reserved; otherwise a binary search over the sorted
  /// within-hyperperiod reservation list keeps this O(log H) without
  /// materializing a per-slot array (hyperperiods reach 2^24 slots).
  [[nodiscard]] Slot next_reserved_slot(Slot from) const;

  /// The table cursor: phase within the hyperperiod of the slot executed
  /// last. execute_slot advances it by one per slot, wrapping once per
  /// hyperperiod, and pays `now % H` only after a jump (the event-driven
  /// runner skipped this channel). The dense path checks it against
  /// `now % H` every slot.
  [[nodiscard]] Slot cursor_phase() const { return cursor_phase_; }

  [[nodiscard]] const sched::TimeSlotTable& table() const { return table_; }
  [[nodiscard]] const workload::TaskSet& tasks() const { return tasks_; }
  [[nodiscard]] Slot busy_slots() const { return busy_slots_; }
  [[nodiscard]] std::uint64_t jobs_completed() const { return jobs_completed_; }
  /// Reserved slots that passed before their job's release (startup
  /// transient of hyper-period-wrapping jobs); they execute nothing.
  [[nodiscard]] std::uint64_t wasted_slots() const { return wasted_slots_; }

  /// Attaches a jitter recorder (not owned; nullptr detaches). On first
  /// attach the channel derives each task's *intended* per-hyperperiod
  /// completion schedule from the sigma* table itself (DESIGN.md §14), so
  /// the recorded deviation is a genuine measurement against the table's
  /// prescription, not against the executor's own behaviour.
  void set_jitter_recorder(JitterRecorder* recorder);

 private:
  struct TaskRun {
    workload::IoTaskSpec spec;
    Slot next_release = 0;   ///< release of the *next* job to start
    Slot current_release = 0;
    Slot remaining = 0;      ///< slots left of the in-flight job (0 = none)
    std::uint32_t jobs_started = 0;
  };

  /// Phase of absolute slot `t`: read off the cursor when `t` is the slot
  /// executed last or the one after it, else `t % H`.
  [[nodiscard]] Slot phase_of(Slot t) const {
    if (t == cursor_slot_) return cursor_phase_;
    if (t == cursor_slot_ + 1)
      return cursor_phase_ + 1 == table_.hyperperiod() ? 0
                                                       : cursor_phase_ + 1;
    return t % table_.hyperperiod();
  }

  workload::TaskSet tasks_;
  sched::TimeSlotTable table_;
  Slot cursor_slot_ = 0;   ///< absolute slot executed last (0 before any)
  Slot cursor_phase_ = 0;  ///< cursor_slot_ % hyperperiod
  /// Reserved slot indices within one hyperperiod, ascending (built once at
  /// construction; the table is immutable afterwards).
  std::vector<Slot> reserved_in_period_;
  // Run state, indexed through run_of_task_ (TaskId.value -> runs_ index,
  // kNoRun when the id is not pre-loaded here). The executor hits this once
  // per reserved slot, so the lookup is a plain array read, not a hash probe.
  static constexpr std::uint32_t kNoRun = 0xffffffffu;
  std::vector<TaskRun> runs_;
  std::vector<std::uint32_t> run_of_task_;
  Slot busy_slots_ = 0;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t wasted_slots_ = 0;
  std::uint64_t next_job_seq_ = 0;
  JitterRecorder* jitter_ = nullptr;
  /// Per run: intended completion slot (exclusive, i.e. slot index + 1) of
  /// job k within one hyperperiod; job n's intended completion is
  /// intended_[run][n % J] + (n / J) * hyperperiod. Built lazily on first
  /// set_jitter_recorder.
  std::vector<std::vector<Slot>> intended_;
};

}  // namespace ioguard::core
