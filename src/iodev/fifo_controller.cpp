#include "iodev/fifo_controller.hpp"

#include "common/check.hpp"

namespace ioguard::iodev {

FifoController::FifoController(std::size_t queue_capacity,
                               Slot dispatch_overhead_slots)
    : capacity_(queue_capacity), dispatch_overhead_(dispatch_overhead_slots) {
  IOGUARD_CHECK(queue_capacity > 0);
}

bool FifoController::enqueue(const workload::Job& job, Slot now) {
  if (queue_.size() >= capacity_) {
    ++rejected_;
    return false;
  }
  queue_.push_back(Request{job, now});
  return true;
}

std::optional<Completion> FifoController::tick_slot(Slot now) {
  if (injector_ != nullptr) {
    if (stall_remaining_ == 0) {
      stall_remaining_ = injector_->device_stall_begins(fault_site_);
    }
    if (stall_remaining_ > 0) {
      // No watchdog here: the FIFO head (and everything behind it) waits
      // out the whole stall.
      --stall_remaining_;
      ++faults_.fifo_stalled_slots;
      ++profile_stall_slots_;
      return std::nullopt;
    }
  }
  if (!current_ && !queue_.empty()) {
    Request r = queue_.front();
    queue_.pop_front();
    current_ = Active{r, r.job.wcet + dispatch_overhead_};
  }
  if (!current_) {
    ++profile_quiescent_slots_;
    return std::nullopt;
  }

  ++busy_slots_;
  if (--current_->remaining == 0) {
    if (injector_ != nullptr && (injector_->drop_frame(fault_site_) ||
                                 injector_->corrupt_frame(fault_site_))) {
      // Lost/corrupt frame with no retransmission: the job silently never
      // completes (the system layer accounts the deadline miss).
      ++faults_.fifo_frames_lost;
      current_.reset();
      return std::nullopt;
    }
    Completion done;
    done.job = current_->request.job;
    done.enqueued_at = current_->request.enqueued_at;
    done.completed_at = now + 1;
    if (jitter_ != nullptr)
      jitter_->record(JitterChannel::kFifo, done.job.vm, done.job.task,
                      done.job.release + done.job.wcet + dispatch_overhead_,
                      done.completed_at);
    ++jobs_completed_;
    bytes_completed_ += done.job.payload_bytes;
    current_.reset();
    return done;
  }
  return std::nullopt;
}

FifoBank::FifoBank(std::size_t devices, std::size_t queue_capacity,
                   Slot dispatch_overhead_slots,
                   faults::FaultInjector* injector) {
  fifos_.reserve(devices);
  for (std::size_t d = 0; d < devices; ++d) {
    fifos_.emplace_back(queue_capacity, dispatch_overhead_slots);
    fifos_.back().set_fault_injector(injector, d);
  }
}

}  // namespace ioguard::iodev
