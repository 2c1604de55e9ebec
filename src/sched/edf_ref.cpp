#include "sched/edf_ref.hpp"

#include <queue>

#include "common/check.hpp"

namespace ioguard::sched {

namespace {

struct LiveJob {
  std::size_t index;  // into trace / outcomes
  Slot deadline;
  Slot remaining;
};

struct EdfLater {
  bool operator()(const LiveJob& a, const LiveJob& b) const {
    return a.deadline != b.deadline ? a.deadline > b.deadline
                                    : a.index > b.index;
  }
};

RefSimResult init_outcomes(const std::vector<workload::Job>& trace) {
  RefSimResult r;
  r.jobs.reserve(trace.size());
  for (const auto& j : trace) {
    JobOutcome o;
    o.job = j.id;
    o.task = j.task;
    o.release = j.release;
    o.absolute_deadline = j.absolute_deadline;
    r.jobs.push_back(o);
  }
  return r;
}

void finalize(RefSimResult& r, Slot horizon) {
  for (const auto& o : r.jobs) {
    if (o.completion == kNeverSlot) {
      // Unfinished at the end of the simulation: only a miss when the
      // deadline fell inside the simulated window (end-of-horizon jobs are
      // not judged).
      if (o.absolute_deadline <= horizon) ++r.misses;
    } else if (o.missed()) {
      ++r.misses;
    }
  }
}

}  // namespace

RefSimResult simulate_edf(const std::vector<workload::Job>& trace,
                          const SupplyFn& supply, Slot horizon) {
  RefSimResult result = init_outcomes(trace);
  std::priority_queue<LiveJob, std::vector<LiveJob>, EdfLater> ready;
  std::size_t next = 0;

  // IOGUARD_LINT_ALLOW(LNT009: analytic reference simulator, deliberately dense)
  for (Slot t = 0; t < horizon; ++t) {
    while (next < trace.size() && trace[next].release <= t) {
      ready.push(LiveJob{next, trace[next].absolute_deadline,
                         trace[next].wcet});
      ++next;
    }
    if (ready.empty() || !supply(t)) continue;
    LiveJob j = ready.top();
    ready.pop();
    ++result.busy_slots;
    if (--j.remaining == 0) {
      result.jobs[j.index].completion = t + 1;
    } else {
      ready.push(j);
    }
  }
  finalize(result, horizon);
  return result;
}

}  // namespace ioguard::sched
