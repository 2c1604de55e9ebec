#include "core/pchannel.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ioguard::core {

PChannel::PChannel(workload::TaskSet predefined, sched::TimeSlotTable table)
    : tasks_(std::move(predefined)), table_(std::move(table)) {
  for (const auto& t : tasks_.tasks()) {
    IOGUARD_CHECK(t.kind == workload::TaskKind::kPredefined);
    TaskRun run;
    run.spec = t;
    run.next_release = t.offset;
    if (t.id.value >= run_of_task_.size())
      run_of_task_.resize(t.id.value + 1, kNoRun);
    run_of_task_[t.id.value] = static_cast<std::uint32_t>(runs_.size());
    runs_.push_back(run);
  }
  const auto& raw = table_.raw();
  reserved_in_period_.reserve(raw.size() - table_.free_slots());
  for (Slot s = 0; s < static_cast<Slot>(raw.size()); ++s)
    if (raw[s] != sched::TimeSlotTable::kFree) reserved_in_period_.push_back(s);
}

Slot PChannel::next_reserved_after(Slot from, Slot phase) const {
  if (reserved_in_period_.empty()) return kNeverSlot;
  const Slot hp = table_.hyperperiod();
  const auto& raw = table_.raw();
  const Slot scan_end = std::min(hp, phase + 1 + kScanSlots);
  for (Slot p = phase + 1; p < scan_end; ++p)
    if (raw[p] != sched::TimeSlotTable::kFree) return from + (p - phase);
  const auto it = std::lower_bound(reserved_in_period_.begin(),
                                   reserved_in_period_.end(), scan_end);
  if (it != reserved_in_period_.end()) return from + (*it - phase);
  // Wrap: the next reservation is the first one of the following period.
  return from + (hp - phase) + reserved_in_period_.front();
}

void PChannel::set_jitter_recorder(JitterRecorder* recorder) {
  jitter_ = recorder;
  if (recorder == nullptr || !intended_.empty() || runs_.empty()) return;

  // Reconstruct the table's per-job placement: each task's reserved slots,
  // ascending, split at the task's offset -- slots before the offset are the
  // wrap tail of the previous generation's last job, so in job order they
  // come *after* the within-generation slots, one hyperperiod later.
  const Slot hp = table_.hyperperiod();
  std::vector<std::vector<Slot>> ordered(runs_.size());
  for (std::size_t idx = 0; idx < runs_.size(); ++idx)
    ordered[idx].reserve(runs_[idx].spec.wcet);
  std::vector<std::vector<Slot>> wrap_tail(runs_.size());
  for (Slot s = 0; s < hp; ++s) {
    const auto occupant = table_.occupant(s);
    if (!occupant) continue;
    const std::uint32_t idx = run_of_task_[occupant->value];
    if (s < runs_[idx].spec.offset)
      wrap_tail[idx].push_back(s + hp);
    else
      ordered[idx].push_back(s);
  }
  intended_.resize(runs_.size());
  for (std::size_t idx = 0; idx < runs_.size(); ++idx) {
    std::vector<Slot>& slots = ordered[idx];
    slots.insert(slots.end(), wrap_tail[idx].begin(), wrap_tail[idx].end());
    const Slot wcet = runs_[idx].spec.wcet;
    // Job k of a generation completes after its (k+1)*wcet-th reserved slot.
    for (std::size_t end = wcet; end <= slots.size(); end += wcet)
      intended_[idx].push_back(slots[end - 1] + 1);
  }
}

std::optional<iodev::Completion> PChannel::execute_reserved(
    Slot now, std::uint32_t occupant, bool& slot_used) {
  const std::uint32_t idx =
      occupant < run_of_task_.size() ? run_of_task_[occupant] : kNoRun;
  IOGUARD_CHECK_MSG(idx != kNoRun, "table references unknown task");
  TaskRun& run = runs_[idx];

  if (run.remaining == 0) {
    // Start the next job if it has been released by now.
    if (run.next_release > now) {
      ++wasted_slots_;  // startup transient of a wrapping job
      return std::nullopt;
    }
    run.current_release = run.next_release;
    run.next_release += run.spec.period;
    run.remaining = run.spec.wcet;
    ++run.jobs_started;
  }

  slot_used = true;
  ++busy_slots_;
  if (--run.remaining == 0) {
    ++jobs_completed_;
    workload::Job job;
    // High bit marks hypervisor-generated job ids, so they can never collide
    // with the dense trace-job ids of the R-channel.
    job.id = JobId{0x40000000u | static_cast<std::uint32_t>(next_job_seq_++)};
    job.task = run.spec.id;
    job.vm = run.spec.vm;
    job.device = run.spec.device;
    job.release = run.current_release;
    job.absolute_deadline = run.current_release + run.spec.deadline;
    job.wcet = run.spec.wcet;
    job.payload_bytes = run.spec.payload_bytes;

    iodev::Completion done;
    done.job = job;
    done.enqueued_at = run.current_release;
    done.completed_at = now + 1;
    if (jitter_ != nullptr && idx < intended_.size() &&
        !intended_[idx].empty()) {
      const auto& sched = intended_[idx];
      const std::uint64_t n = run.jobs_started - 1;  // job completing now
      const Slot intended = (n / sched.size()) * table_.hyperperiod() +
                            sched[n % sched.size()];
      jitter_->record(JitterChannel::kPChannel, job.vm, job.task, intended,
                      done.completed_at);
    }
    return done;
  }
  return std::nullopt;
}

}  // namespace ioguard::core
