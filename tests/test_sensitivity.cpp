// Tests for the sensitivity analysis (breakdown factor, slack, budget
// margins) layered over Theorems 3/4.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sched/sensitivity.hpp"
#include "sched/server_design.hpp"

namespace ioguard::sched {
namespace {

workload::IoTaskSpec task(std::uint32_t id, Slot t, Slot c, Slot d) {
  workload::IoTaskSpec s;
  s.id = TaskId{id};
  s.vm = VmId{0};
  s.device = DeviceId{0};
  s.name = std::string("t").append(std::to_string(id));
  s.period = t;
  s.wcet = c;
  s.deadline = d;
  s.payload_bytes = 8;
  return s;
}

TEST(Breakdown, UnschedulableIsFailedPrecondition) {
  workload::TaskSet ts;
  ts.add(task(0, 10, 9, 10));
  const auto alpha = breakdown_factor({10, 5}, ts);
  ASSERT_FALSE(alpha.ok());
  EXPECT_EQ(alpha.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Breakdown, BadParametersAreInvalidArgument) {
  workload::TaskSet ts;
  ts.add(task(0, 1000, 10, 1000));
  EXPECT_EQ(breakdown_factor({10, 8}, ts, 0.5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(breakdown_factor({10, 8}, ts, 8.0, 0.0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Breakdown, LightLoadHasLargeMargin) {
  workload::TaskSet ts;
  ts.add(task(0, 1000, 10, 1000));
  const auto alpha = breakdown_factor({10, 8}, ts);
  ASSERT_TRUE(alpha.ok());
  EXPECT_GT(*alpha, 2.0);
}

TEST(Breakdown, ScaledSetStillSchedulableAtAlpha) {
  workload::TaskSet ts;
  ts.add(task(0, 100, 10, 90));
  ts.add(task(1, 200, 30, 150));
  const ServerParams g{20, 12};
  if (!theorem4_check(g, ts)) GTEST_SKIP();
  const auto alpha_or = breakdown_factor(g, ts);
  ASSERT_TRUE(alpha_or.ok());
  const double alpha = *alpha_or;
  ASSERT_GE(alpha, 1.0);
  // Scaling by slightly less than alpha must stay schedulable.
  workload::TaskSet scaled;
  for (auto t : ts.tasks()) {
    t.wcet = std::max<Slot>(
        1, static_cast<Slot>(std::floor(0.98 * alpha *
                                        static_cast<double>(t.wcet))));
    if (t.wcet > t.deadline) t.wcet = t.deadline;
    scaled.add(std::move(t));
  }
  EXPECT_TRUE(theorem4_check(g, scaled));
}

TEST(MinSlack, PositiveIffSchedulable) {
  Rng rng(3);
  for (int rep = 0; rep < 40; ++rep) {
    workload::TaskSet ts;
    const Slot period = 50 + rng.uniform_int(0, 200);
    const Slot deadline = period - rng.uniform_int(0, period / 4);
    const Slot wcet = 1 + rng.uniform_int(0, deadline / 3);
    ts.add(task(0, period, wcet, deadline));
    const Slot pi = 5 + rng.uniform_int(0, 20);
    const ServerParams g{pi, 1 + rng.uniform_int(0, pi - 1)};

    if (g.bandwidth() <= ts.utilization()) continue;  // covered below
    const auto slack = min_slack(g, ts);
    ASSERT_TRUE(slack.ok());
    const bool sched = static_cast<bool>(theorem4_check(g, ts));
    EXPECT_EQ(*slack >= 0, sched)
        << "Pi=" << g.pi << " Theta=" << g.theta << " T=" << period
        << " C=" << wcet << " D=" << deadline << " slack=" << *slack;
  }
}

TEST(MinSlack, OverUtilizedServerIsNegative) {
  workload::TaskSet ts;
  ts.add(task(0, 10, 6, 10));  // util 0.6
  const auto slack = min_slack({10, 3}, ts);  // bandwidth 0.3
  ASSERT_TRUE(slack.ok());
  EXPECT_LT(*slack, 0);
}

TEST(MinSlack, EmptySetIsFailedPrecondition) {
  const auto slack = min_slack({10, 5}, workload::TaskSet{});
  ASSERT_FALSE(slack.ok());
  EXPECT_EQ(slack.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MinSlack, WindowPastTheLcmCapIsOutOfRange) {
  // The check bound does not fit 64 bits, so min_slack falls back to a few
  // hyper-periods, and lcm(2^40, 2^45) passes the 2^22-slot cap.
  workload::TaskSet ts;
  ts.add(task(1, Slot{1} << 40, 1098412116147, Slot{1} << 40));
  ts.add(task(2, Slot{1} << 45, 1, 1));
  const auto slack = min_slack({1000, 999}, ts);
  ASSERT_FALSE(slack.ok());
  EXPECT_EQ(slack.status().code(), StatusCode::kOutOfRange);
}

TEST(MinTheta, MatchesDirectSearch) {
  workload::TaskSet ts;
  ts.add(task(0, 100, 10, 80));
  ts.add(task(1, 400, 40, 300));
  const ServerParams g{20, 20};
  const auto needed = min_required_theta(g, ts);
  ASSERT_TRUE(needed.ok());
  EXPECT_TRUE(theorem4_check({20, *needed}, ts));
  if (*needed > 1) {
    EXPECT_FALSE(theorem4_check({20, *needed - 1}, ts));
  }
  // Consistent with the designer's minimal budget for the same Pi.
  const auto designed = min_theta_for_pi(20, ts);
  ASSERT_TRUE(designed.ok());
  EXPECT_EQ(designed->theta, *needed);
}

TEST(GlobalSlack, DetectsViolationMagnitude) {
  TimeSlotTable t(10);
  for (Slot s = 0; s < 5; ++s) t.reserve(s, TaskId{0});
  TableSupply supply(t);  // bandwidth 0.5
  // Demand 0.6: negative slack.
  const auto bad = global_min_slack(supply, {{10, 6}});
  ASSERT_TRUE(bad.ok());
  EXPECT_LT(*bad, 0);
  // Demand 0.3: non-negative slack.
  const auto good = global_min_slack(supply, {{10, 3}});
  ASSERT_TRUE(good.ok());
  EXPECT_GE(*good, 0);
}

TEST(GlobalSlack, WindowPastTheLcmCapIsOutOfRange) {
  TimeSlotTable t(10);
  for (Slot s = 0; s < 5; ++s) t.reserve(s, TaskId{0});
  TableSupply supply(t);  // bandwidth 0.5
  // Demand 0.7 leaves no Theorem 2 bound, and lcm(10, 1000003) passes 2^22.
  const auto slack = global_min_slack(supply, {{1000003, 700002}});
  ASSERT_FALSE(slack.ok());
  EXPECT_EQ(slack.status().code(), StatusCode::kOutOfRange);
}

TEST(GlobalSlack, AgreesWithTheorem1) {
  Rng rng(17);
  for (int rep = 0; rep < 30; ++rep) {
    TimeSlotTable t(20);
    for (Slot s = 0; s < 20; ++s)
      if (rng.bernoulli(0.4)) t.reserve(s, TaskId{0});
    if (t.free_slots() == 0) t.release(0);
    TableSupply supply(t);
    std::vector<ServerParams> servers;
    for (int k = 0; k < 2; ++k) {
      const Slot pi = 4 + rng.uniform_int(0, 12);
      servers.push_back({pi, 1 + rng.uniform_int(0, pi - 1)});
    }
    const auto slack = global_min_slack(supply, servers);
    ASSERT_TRUE(slack.ok());
    EXPECT_EQ(*slack >= 0,
              static_cast<bool>(theorem1_exhaustive(supply, servers)));
  }
}

}  // namespace
}  // namespace ioguard::sched
