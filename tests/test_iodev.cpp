// Unit tests for the I/O device models and the legacy FIFO controller.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/hypervisor.hpp"
#include "iodev/fifo_controller.hpp"
#include "workload/automotive.hpp"

namespace ioguard::iodev {
namespace {

workload::Job make_job(std::uint32_t id, Slot release, Slot deadline,
                       Slot wcet, std::uint32_t bytes = 64) {
  workload::Job j;
  j.id = JobId{id};
  j.task = TaskId{id};
  j.vm = VmId{0};
  j.device = DeviceId{0};
  j.release = release;
  j.absolute_deadline = deadline;
  j.wcet = wcet;
  j.payload_bytes = bytes;
  return j;
}

TEST(DeviceCatalog, ContainsAllKinds) {
  // The case study's four devices, by workload::CaseStudyDevice id.
  const char* names[] = {"eth0", "flexray0", "can0", "spi0"};
  for (std::uint32_t d = 0; d < workload::kCaseStudyDeviceCount; ++d)
    EXPECT_EQ(core::case_study_device_spec(DeviceId{d}).name, names[d]);
  EXPECT_THROW((void)core::case_study_device_spec(DeviceId{4}), CheckFailure);
}

TEST(FifoController, ServesInArrivalOrder) {
  FifoController fifo(8);
  ASSERT_TRUE(fifo.enqueue(make_job(0, 0, 100, 2), 0));
  ASSERT_TRUE(fifo.enqueue(make_job(1, 0, 50, 3), 0));

  std::vector<std::uint32_t> completed;
  for (Slot s = 0; s < 10; ++s)
    if (auto done = fifo.tick_slot(s)) completed.push_back(done->job.id.value);
  ASSERT_EQ(completed.size(), 2u);
  EXPECT_EQ(completed[0], 0u);  // arrival order, not deadline order
  EXPECT_EQ(completed[1], 1u);
  EXPECT_EQ(fifo.busy_slots(), 5u);
  EXPECT_TRUE(fifo.idle());
}

TEST(FifoController, NonPreemptiveBlocking) {
  FifoController fifo(8);
  ASSERT_TRUE(fifo.enqueue(make_job(0, 0, 1000, 50), 0));
  Slot s = 0;
  // Long job starts; a short urgent job arrives at slot 10.
  for (; s < 10; ++s) fifo.tick_slot(s);
  ASSERT_TRUE(fifo.enqueue(make_job(1, 10, 20, 2), 10));
  std::optional<Completion> short_done;
  for (; s < 100; ++s) {
    if (auto done = fifo.tick_slot(s))
      if (done->job.id.value == 1) short_done = done;
  }
  ASSERT_TRUE(short_done.has_value());
  EXPECT_TRUE(short_done->missed());             // blocked behind the long job
  EXPECT_EQ(short_done->completed_at, 52u);      // 50 + 2 slots
}

TEST(FifoController, CompletionTimestampsAndDeadlines) {
  FifoController fifo(4);
  ASSERT_TRUE(fifo.enqueue(make_job(0, 0, 3, 3), 0));
  std::optional<Completion> done;
  for (Slot s = 0; s < 5 && !done; ++s) done = fifo.tick_slot(s);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->completed_at, 3u);
  EXPECT_FALSE(done->missed());
}

TEST(FifoController, RejectsWhenFull) {
  FifoController fifo(2);
  EXPECT_TRUE(fifo.enqueue(make_job(0, 0, 100, 5), 0));
  EXPECT_TRUE(fifo.enqueue(make_job(1, 0, 100, 5), 0));
  EXPECT_FALSE(fifo.enqueue(make_job(2, 0, 100, 5), 0));
  EXPECT_EQ(fifo.rejected(), 1u);
  // Draining frees capacity again.
  for (Slot s = 0; s < 20; ++s) fifo.tick_slot(s);
  EXPECT_TRUE(fifo.enqueue(make_job(3, 20, 100, 5), 20));
}

TEST(FifoController, IdleSlotsConsumeNothing) {
  FifoController fifo(4);
  for (Slot s = 0; s < 10; ++s) EXPECT_FALSE(fifo.tick_slot(s).has_value());
  EXPECT_EQ(fifo.busy_slots(), 0u);
}

}  // namespace
}  // namespace ioguard::iodev
