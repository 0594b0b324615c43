#include "reference/min_cost_flow.h"

#include <gtest/gtest.h>

namespace bagcpd {
namespace {

TEST(MinCostFlowTest, SingleArc) {
  MinCostFlow net(2);
  const int arc = net.AddArc(0, 1, 5.0, 2.0);
  Result<FlowSolution> sol = net.Solve(0, 1, 3.0);
  ASSERT_TRUE(sol.ok());
  EXPECT_DOUBLE_EQ(sol->flow, 3.0);
  EXPECT_DOUBLE_EQ(sol->cost, 6.0);
  EXPECT_DOUBLE_EQ(net.FlowOn(arc), 3.0);
}

TEST(MinCostFlowTest, PrefersCheaperPath) {
  // Two parallel 2-hop paths: cost 1 (cap 2) vs cost 10 (cap 10).
  MinCostFlow net(4);
  const int cheap1 = net.AddArc(0, 1, 2.0, 0.5);
  const int cheap2 = net.AddArc(1, 3, 2.0, 0.5);
  const int costly1 = net.AddArc(0, 2, 10.0, 5.0);
  const int costly2 = net.AddArc(2, 3, 10.0, 5.0);
  Result<FlowSolution> sol = net.Solve(0, 3, 5.0);
  ASSERT_TRUE(sol.ok());
  EXPECT_DOUBLE_EQ(sol->flow, 5.0);
  // 2 units over the cheap path (cost 1 each) + 3 over the costly (cost 10).
  EXPECT_DOUBLE_EQ(sol->cost, 2.0 * 1.0 + 3.0 * 10.0);
  EXPECT_DOUBLE_EQ(net.FlowOn(cheap1), 2.0);
  EXPECT_DOUBLE_EQ(net.FlowOn(cheap2), 2.0);
  EXPECT_DOUBLE_EQ(net.FlowOn(costly1), 3.0);
  EXPECT_DOUBLE_EQ(net.FlowOn(costly2), 3.0);
}

TEST(MinCostFlowTest, InfeasibleAmountFails) {
  MinCostFlow net(2);
  net.AddArc(0, 1, 1.0, 1.0);
  EXPECT_FALSE(net.Solve(0, 1, 2.0).ok());
}

TEST(MinCostFlowTest, ZeroAmountIsTrivial) {
  MinCostFlow net(2);
  net.AddArc(0, 1, 1.0, 1.0);
  Result<FlowSolution> sol = net.Solve(0, 1, 0.0);
  ASSERT_TRUE(sol.ok());
  EXPECT_DOUBLE_EQ(sol->flow, 0.0);
  EXPECT_DOUBLE_EQ(sol->cost, 0.0);
}

TEST(MinCostFlowTest, DisconnectedFails) {
  MinCostFlow net(3);
  net.AddArc(0, 1, 5.0, 1.0);  // Node 2 unreachable.
  EXPECT_FALSE(net.Solve(0, 2, 1.0).ok());
}

TEST(MinCostFlowTest, RealValuedCapacities) {
  MinCostFlow net(3);
  net.AddArc(0, 1, 0.3, 1.0);
  net.AddArc(0, 1, 0.7, 2.0);
  net.AddArc(1, 2, 1.0, 0.0);
  Result<FlowSolution> sol = net.Solve(0, 2, 1.0);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->cost, 0.3 * 1.0 + 0.7 * 2.0, 1e-9);
}

TEST(MinCostFlowTest, BipartiteTransportation) {
  // 2 supplies (3, 2), 2 demands (2, 3); classic transportation optimum.
  // Costs: s0->d0: 1, s0->d1: 4, s1->d0: 3, s1->d1: 1.
  // Optimal: s0->d0: 2, s0->d1: 1, s1->d1: 2 => 2 + 4 + 2 = 8.
  MinCostFlow net(6);  // source=0, s0=1, s1=2, d0=3, d1=4, sink=5.
  net.AddArc(0, 1, 3.0, 0.0);
  net.AddArc(0, 2, 2.0, 0.0);
  net.AddArc(1, 3, 3.0, 1.0);
  net.AddArc(1, 4, 3.0, 4.0);
  net.AddArc(2, 3, 2.0, 3.0);
  net.AddArc(2, 4, 2.0, 1.0);
  net.AddArc(3, 5, 2.0, 0.0);
  net.AddArc(4, 5, 3.0, 0.0);
  Result<FlowSolution> sol = net.Solve(0, 5, 5.0);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->cost, 8.0, 1e-9);
}

TEST(MinCostFlowTest, OutOfRangeNodesRejected) {
  MinCostFlow net(2);
  net.AddArc(0, 1, 1.0, 1.0);
  EXPECT_FALSE(net.Solve(0, 7, 1.0).ok());
  EXPECT_FALSE(net.Solve(0, 1, -1.0).ok());
}

}  // namespace
}  // namespace bagcpd
