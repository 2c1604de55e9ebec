// Per-operation timing-jitter recorder (DESIGN.md §14, ROTA-I/O semantics).
//
// Jitter is the deviation of an operation's *actual* delivery slot from its
// *intended* trigger slot:
//   * P-channel: the intended completion slot is prescribed by the sigma*
//     Time Slot Table itself (PChannel precomputes the per-hyperperiod
//     completion schedule), so an unloaded, table-following P-channel has
//     identically zero jitter -- deviation appears only when release lag
//     wastes reserved slots.
//   * R-channel: intended = release + unloaded service demand (wcet +
//     dispatch overhead); jitter folds in queueing, scheduling and
//     retry/recovery delay.
//   * FIFO baselines: same definition as the R-channel, against the shared
//     FIFO queue.
//   * Translator: actual translation cycles minus the configured best case
//     (sub-slot, recorded in cycles, keyed per device).
//
// The recorder lives in common/ so core::VirtManager/PChannel and
// iodev::FifoController (below core in the link order) can both feed it.
// Single-writer per trial; every sample goes once, in cycles, into an HDR
// histogram, whose merge is order-independent, so exports stay
// byte-identical across --jobs=1 vs N.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hdr_histogram.hpp"
#include "common/types.hpp"

namespace ioguard {

enum class JitterChannel : std::uint8_t {
  kPChannel = 0,   ///< pre-defined tasks on sigma* slots
  kRChannel = 1,   ///< run-time jobs through pools/G-Sched
  kFifo = 2,       ///< baseline systems' shared FIFO path
};

/// Worst channel deviation of one task, in slots.
struct TaskJitter {
  std::uint32_t task = 0;
  std::uint64_t ops = 0;         ///< delivered operations observed
  std::uint64_t worst_slots = 0; ///< largest deviation seen
};

/// One trial's jitter (TrialConfig::collect_jitter), every histogram in
/// cycles. Channel histograms are indexed by VM, translator histograms by
/// device.
struct JitterSummary {
  bool collected = false;
  std::vector<HdrHistogram> p_by_vm;
  std::vector<HdrHistogram> r_by_vm;
  std::vector<HdrHistogram> fifo_by_vm;
  std::vector<HdrHistogram> translator_by_device;
  std::vector<TaskJitter> by_task;  ///< ascending by task id
};

class JitterRecorder {
 public:
  /// Every channel has one (empty) histogram per VM from the start.
  JitterRecorder(std::size_t num_vms, Cycle cycles_per_slot);

  /// Records one delivered operation. `actual` earlier than `intended`
  /// cannot happen for any channel (intended is the unloaded best case);
  /// the recorded deviation is (actual - intended) * cycles_per_slot.
  void record(JitterChannel channel, VmId vm, TaskId task, Slot intended,
              Slot actual);

  /// Records one response-translation deviation in cycles (actual cost
  /// minus the configured best case) for `device`; the device's histogram
  /// (and those of lower device ids) appear on its first record.
  void record_translator(DeviceId device, Cycle jitter_cycles);

  /// Moves the histograms out at the end of the trial and compacts the
  /// per-task view; the recorder takes no records afterwards.
  [[nodiscard]] JitterSummary harvest();

 private:
  Cycle cycles_per_slot_;
  JitterSummary summary_;
  std::vector<TaskJitter> by_task_;  // dense by task id; ops==0 -> unseen
};

}  // namespace ioguard
