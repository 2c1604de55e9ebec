#include "workload/arrivals.hpp"

#include <algorithm>
#include <cmath>

namespace ioguard::workload {

std::vector<Job> generate_trace(const TaskSet& tasks,
                                const ArrivalConfig& config) {
  IOGUARD_CHECK(config.horizon > 0);
  IOGUARD_CHECK(config.exec_frac_lo > 0.0 &&
                config.exec_frac_lo <= config.exec_frac_hi &&
                config.exec_frac_hi <= 1.0);
  const Rng rng(config.seed);

  // One release stream per task, each drawing from its own fork of the
  // trace seed, merged by (release, task id): the trace comes out in order
  // without sorting it, and each stream draws what it would alone.
  struct Stream {
    Slot release;
    std::uint32_t task;  ///< TaskId value, the tie-break
    std::uint32_t index;  ///< into tasks.tasks() and rngs
  };
  const auto later = [](const Stream& a, const Stream& b) {
    return a.release != b.release ? a.release > b.release : a.task > b.task;
  };
  std::vector<Stream> heap;
  std::vector<Rng> rngs;
  heap.reserve(tasks.size());
  rngs.reserve(tasks.size());
  std::size_t bound = 0;  // releases are at least a period apart
  for (const auto& t : tasks.tasks()) {
    IOGUARD_CHECK_MSG(t.period > 0, "task period must be positive");
    rngs.push_back(rng.fork(t.id.value));
    const Slot first = t.kind == TaskKind::kPredefined ? t.offset : Slot{0};
    if (first >= config.horizon) continue;
    heap.push_back(Stream{first, t.id.value,
                          static_cast<std::uint32_t>(rngs.size() - 1)});
    bound += (config.horizon - first + t.period - 1) / t.period;
  }
  std::make_heap(heap.begin(), heap.end(), later);

  std::vector<Job> jobs;
  jobs.reserve(bound);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Stream& s = heap.back();
    const IoTaskSpec& t = tasks.tasks()[s.index];
    Rng& task_rng = rngs[s.index];
    Job j;
    j.id = JobId{static_cast<std::uint32_t>(jobs.size())};
    j.task = t.id;
    j.vm = t.vm;
    j.device = t.device;
    j.release = s.release;
    j.absolute_deadline = s.release + t.deadline;
    const double frac =
        task_rng.uniform(config.exec_frac_lo, config.exec_frac_hi);
    j.wcet = std::max<Slot>(
        1, static_cast<Slot>(std::llround(frac * static_cast<double>(t.wcet))));
    j.payload_bytes = t.payload_bytes;
    jobs.push_back(j);

    if (t.kind == TaskKind::kPredefined) {
      s.release += t.period;
    } else {
      const double slack = config.jitter_frac <= 0.0
                               ? 0.0
                               : task_rng.exponential(
                                     config.jitter_frac *
                                     static_cast<double>(t.period));
      s.release += t.period + static_cast<Slot>(std::llround(slack));
    }
    if (s.release < config.horizon)
      std::push_heap(heap.begin(), heap.end(), later);
    else
      heap.pop_back();
  }
  return jobs;
}

Slot horizon_for_min_jobs(const TaskSet& tasks, std::size_t min_jobs) {
  Slot max_period = 0;
  for (const auto& t : tasks.tasks()) max_period = std::max(max_period, t.period);
  return max_period * static_cast<Slot>(min_jobs) + 1;
}

}  // namespace ioguard::workload
