// Hardware-model random-access priority queue (Sec. III-A).
//
// "Different from the conventional FIFO queues, the priority queue has a
// more complicated structure which introduces an additional slot for each
// I/O task, storing its associated parameters ... the priority queue
// supports random accesses, which enables the prioritization of the tasks."
//
// The model mirrors a register-file implementation: a fixed array of entry
// registers, each with a valid bit and a parameter slot (absolute deadline,
// remaining demand). peek_earliest() models the comparator tree that a
// hardware implementation evaluates combinationally; software cost is O(n),
// hardware cost is log2(n) comparator levels (see hwmodel/fmax).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "workload/task.hpp"

namespace ioguard::core {

/// Index of an entry register inside the queue.
using EntryHandle = std::uint32_t;
inline constexpr EntryHandle kInvalidHandle = 0xffffffffu;

/// The per-task parameter slot ("implemented via registers", footnote 2).
struct ParamSlot {
  Slot absolute_deadline = 0;
  Slot remaining = 0;        ///< slots of service still needed
  Slot total = 0;            ///< service demand at insertion (remaining ==
                             ///< total until the first slot executes)
  Slot release = 0;
  VmId vm;
  TaskId task;
  JobId job;
  DeviceId device;
  std::uint32_t payload_bytes = 0;
};

class HwPriorityQueue {
 public:
  explicit HwPriorityQueue(std::size_t capacity);

  /// Inserts a job; returns its handle, or nullopt when all entry registers
  /// are occupied (hardware back-pressure).
  std::optional<EntryHandle> insert(const workload::Job& job);

  /// Entry with the earliest absolute deadline (ties: earliest release,
  /// then lowest job id). nullopt when empty.
  [[nodiscard]] std::optional<EntryHandle> peek_earliest() const;

  /// Random-access read of an entry's parameter slot.
  [[nodiscard]] const ParamSlot& params(EntryHandle h) const;

  /// Random-access update: decrements remaining demand by one slot.
  /// Returns true when the entry reached zero (caller should remove it).
  bool consume_one_slot(EntryHandle h);

  void remove(EntryHandle h);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] bool full() const { return live_ == entries_.size(); }
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] std::size_t capacity() const { return entries_.size(); }
  [[nodiscard]] bool valid(EntryHandle h) const;

  /// All live handles (test/instrumentation aid).
  [[nodiscard]] std::vector<EntryHandle> live_handles() const;

 private:
  struct Entry {
    bool valid = false;
    ParamSlot slot;
  };
  std::vector<Entry> entries_;
  std::size_t live_ = 0;
  std::uint32_t next_free_hint_ = 0;

  // Cached result of the comparator tree. Hardware evaluates the tree
  // combinationally every cycle; the model only re-evaluates (O(capacity)
  // scan) when an operation could have changed the winner: removal of the
  // cached best. Inserts update the cache with a single comparison using the
  // same total order as the scan -- (deadline, release, job id, handle) --
  // so peek_earliest() returns bit-identical handles either way.
  mutable EntryHandle cached_best_ = kInvalidHandle;
  mutable bool cache_valid_ = false;
};

}  // namespace ioguard::core
