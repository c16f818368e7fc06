// Unit tests for the discrete-event simulator.

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/simulator.h"

namespace metis {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(2.0, [&] { order.push_back(2); });
  sim.ScheduleAt(1.0, [&] { order.push_back(1); });
  sim.ScheduleAt(3.0, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(SimulatorTest, TiesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(1.0, [&] { order.push_back(1); });
  sim.ScheduleAt(1.0, [&] { order.push_back(2); });
  sim.ScheduleAt(1.0, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  double fired_at = -1;
  sim.ScheduleAt(5.0, [&] {
    sim.ScheduleAfter(2.5, [&] { fired_at = sim.now(); });
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(SimulatorTest, EventsScheduledDuringRunAreExecuted) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) {
      sim.ScheduleAfter(1.0, chain);
    }
  };
  sim.ScheduleAfter(0.0, chain);
  sim.Run();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(sim.now(), 9.0);
}

TEST(SimulatorTest, HorizonStopsBeforeLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1.0, [&] { ++fired; });
  sim.ScheduleAt(10.0, [&] { ++fired; });
  sim.Run(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1.0, [&] { ++fired; });
  sim.ScheduleAt(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, IdleAndCounters) {
  Simulator sim;
  EXPECT_TRUE(sim.idle());
  sim.ScheduleAt(0.0, [] {});
  EXPECT_FALSE(sim.idle());
  sim.Run();
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(SimulatorDeathTest, SchedulingInThePastAborts) {
  Simulator sim;
  sim.ScheduleAt(5.0, [] {});
  sim.Run();
  EXPECT_DEATH(sim.ScheduleAt(1.0, [] {}), "CHECK failed");
}

}  // namespace
}  // namespace metis
