// Tests for the two implemented extensions the paper names but leaves
// out: multicast flow queries (§4.5) and operational link state / failure
// handling (ifOperStatus through the whole stack).
#include <gtest/gtest.h>

#include "apps/harness.hpp"
#include "core/modeler.hpp"
#include "netsim/testbeds.hpp"
#include "netsim/traffic.hpp"
#include "util/error.hpp"

namespace remos {
namespace {

using apps::CmuHarness;
using core::FlowQuery;
using core::FlowRequest;
using core::MulticastRequest;
using core::Timeframe;

class MulticastQuery : public ::testing::Test {
 protected:
  MulticastQuery() { harness_.start(6.0); }
  CmuHarness harness_;
};

TEST_F(MulticastQuery, TreeLinksChargedOnce) {
  // m-4 multicasts to m-5 and m-6: both paths share the m-4 uplink, so a
  // 60 Mbps tree fits even though two unicast 60s would not.
  FlowQuery q;
  q.multicast.push_back(MulticastRequest{"m-4", {"m-5", "m-6"}, mbps(60)});
  const auto r = harness_.modeler().flow_info(q);
  ASSERT_EQ(r.multicast.size(), 1u);
  EXPECT_TRUE(r.multicast[0].satisfied);
  EXPECT_NEAR(r.multicast[0].bandwidth.quartiles.median, mbps(60), 1);

  FlowQuery unicast;
  unicast.fixed = {FlowRequest{"m-4", "m-5", mbps(60)},
                   FlowRequest{"m-4", "m-6", mbps(60)}};
  const auto ru = harness_.modeler().flow_info(unicast);
  EXPECT_TRUE(ru.fixed[0].satisfied);
  EXPECT_FALSE(ru.fixed[1].satisfied);  // uplink exhausted: 40 left
}

TEST_F(MulticastQuery, CongestedBranchLimitsWholeTree) {
  netsim::CbrTraffic cross(harness_.sim(), "m-6", "m-8", mbps(80));
  harness_.sim().run_for(8.0);
  FlowQuery q;
  q.multicast.push_back(
      MulticastRequest{"m-4", {"m-5", "m-8"}, mbps(50)});
  q.timeframe = Timeframe::current();
  const auto r = harness_.modeler().flow_info(q);
  EXPECT_FALSE(r.multicast[0].satisfied);
  // timberline->whiteface has ~20 Mbps left; that's the deliverable rate.
  EXPECT_NEAR(r.multicast[0].bandwidth.quartiles.median, mbps(20), mbps(3));
  // Latency reports the farthest receiver (3 hops to m-8).
  EXPECT_NEAR(r.multicast[0].latency.mean, 3 * millis(0.2), 1e-6);
}

TEST_F(MulticastQuery, ConsumesBeforeVariableAndIndependent) {
  FlowQuery q;
  q.multicast.push_back(MulticastRequest{"m-4", {"m-5"}, mbps(70)});
  q.variable = {FlowRequest{"m-4", "m-6", 1.0}};
  q.independent = FlowRequest{"m-4", "m-7", 0};
  const auto r = harness_.modeler().flow_info(q);
  EXPECT_TRUE(r.multicast[0].satisfied);
  EXPECT_NEAR(r.variable[0].bandwidth.quartiles.median, mbps(30), 1);
  EXPECT_NEAR(r.independent->bandwidth.quartiles.median, 0.0, 1);
  EXPECT_TRUE(r.all_fixed_satisfied());
}

TEST_F(MulticastQuery, Validation) {
  FlowQuery no_receivers;
  no_receivers.multicast.push_back(MulticastRequest{"m-4", {}, mbps(1)});
  EXPECT_THROW(harness_.modeler().flow_info(no_receivers), InvalidArgument);
  FlowQuery self;
  self.multicast.push_back(MulticastRequest{"m-4", {"m-4"}, mbps(1)});
  EXPECT_THROW(harness_.modeler().flow_info(self), InvalidArgument);
  FlowQuery only_mc;  // a multicast-only query is legal
  only_mc.multicast.push_back(MulticastRequest{"m-4", {"m-5"}, mbps(1)});
  EXPECT_NO_THROW(harness_.modeler().flow_info(only_mc));
}

// ---------------------------------------------------------------------
// Link failure / operational state.
// ---------------------------------------------------------------------

netsim::LinkId link_of(netsim::Simulator& sim, const std::string& a,
                       const std::string& b) {
  return sim.topology().link_between(sim.topology().id_of(a),
                                     sim.topology().id_of(b));
}

TEST(LinkFailureSim, FlowsRerouteAroundDeadLink) {
  netsim::Simulator sim(netsim::make_cmu_testbed());
  const auto f = sim.start_flow("m-4", "m-7");  // timberline->whiteface
  EXPECT_NEAR(sim.flow_rate(f), mbps(100), 1);
  const auto tw = link_of(sim, "timberline", "whiteface");
  sim.set_link_up(tw, false);
  EXPECT_FALSE(sim.link_up(tw));
  // Route shifts to timberline->aspen->whiteface; still 100 Mbps clean.
  EXPECT_NEAR(sim.flow_rate(f), mbps(100), 1);
  // The detour now shares links with aspen traffic.
  const auto g = sim.start_flow("m-1", "m-8");  // aspen->whiteface
  EXPECT_NEAR(sim.flow_rate(f), mbps(50), 1);
  EXPECT_NEAR(sim.flow_rate(g), mbps(50), 1);
  sim.set_link_up(tw, true);
  EXPECT_NEAR(sim.flow_rate(f), mbps(100), 1);
}

TEST(LinkFailureSim, DisconnectionStallsAndRecovers) {
  netsim::Simulator sim(netsim::make_cmu_testbed());
  const auto access = link_of(sim, "m-7", "whiteface");
  netsim::FlowOptions opts;
  opts.volume = 12.5e6;  // 1 s at full rate
  bool done = false;
  const auto f = sim.start_flow("m-4", "m-7", opts, [&](auto) { done = true; });
  sim.run_for(0.5);
  sim.set_link_up(access, false);  // m-7 unreachable: flow stalls
  EXPECT_DOUBLE_EQ(sim.flow_rate(f), 0.0);
  sim.run_for(5.0);
  EXPECT_FALSE(done);
  EXPECT_NEAR(sim.flow_sent(f), 6.25e6, 1e3);  // frozen mid-transfer
  sim.set_link_up(access, true);
  sim.run_for(0.6);
  EXPECT_TRUE(done);
}

TEST(LinkFailureSim, StartFlowToUnreachableHostStalls) {
  netsim::Simulator sim(netsim::make_cmu_testbed());
  const auto access = link_of(sim, "m-8", "whiteface");
  sim.set_link_up(access, false);
  const auto f = sim.start_flow("m-1", "m-8");
  EXPECT_DOUBLE_EQ(sim.flow_rate(f), 0.0);
  // On a fully-up network the same situation is a caller error.
  netsim::Simulator intact(netsim::make_cmu_testbed());
  netsim::Topology island;
  island.add_node("x", netsim::NodeKind::kCompute);
  island.add_node("y", netsim::NodeKind::kCompute);
  netsim::Simulator partitioned(island);
  EXPECT_THROW(partitioned.start_flow("x", "y"), NotFoundError);
}

TEST(LinkFailureSim, DownLinkCarriesNoOctets) {
  netsim::Simulator sim(netsim::make_cmu_testbed());
  const auto tw = link_of(sim, "timberline", "whiteface");
  sim.start_flow("m-4", "m-7");
  sim.run_for(1.0);
  const Bytes before = sim.link_tx_bytes(tw, true) +
                       sim.link_tx_bytes(tw, false);
  EXPECT_GT(before, 0);
  sim.set_link_up(tw, false);
  sim.run_for(5.0);
  EXPECT_DOUBLE_EQ(sim.link_tx_bytes(tw, true) +
                       sim.link_tx_bytes(tw, false),
                   before);
}

TEST(LinkFailureStack, OperStatusReachesModelerAndClustering) {
  CmuHarness harness;
  harness.start(6.0);
  netsim::Simulator& sim = harness.sim();
  const auto tw = link_of(sim, "timberline", "whiteface");
  sim.set_link_up(tw, false);
  sim.run_for(6.0);  // a few polls observe ifOperStatus = down

  // Collector sees the failure...
  const auto* ml =
      harness.collector().model().find_link("timberline", "whiteface");
  ASSERT_NE(ml, nullptr);
  EXPECT_FALSE(ml->up());

  // ...the logical topology routes around it...
  const auto g = harness.modeler().get_graph({"m-4", "m-7"},
                                             Timeframe::current());
  ASSERT_TRUE(g.route("m-4", "m-7").has_value());
  for (const auto& l : g.links()) {
    EXPECT_FALSE((l.a == "timberline" && l.b == "whiteface") ||
                 (l.a == "whiteface" && l.b == "timberline"));
  }

  // ...and a flow query reports the detour's latency (4 hops via aspen).
  FlowQuery q;
  q.independent = FlowRequest{"m-4", "m-7", 0};
  const auto r = harness.modeler().flow_info(q);
  EXPECT_TRUE(r.independent->routable);
  EXPECT_NEAR(r.independent->latency.mean, 4 * millis(0.2), 1e-6);
}

TEST(LinkFailureStack, PartitionedHostBecomesUnroutable) {
  CmuHarness harness;
  harness.start(6.0);
  netsim::Simulator& sim = harness.sim();
  sim.set_link_up(link_of(sim, "m-8", "whiteface"), false);
  sim.run_for(6.0);
  FlowQuery q;
  q.independent = FlowRequest{"m-1", "m-8", 0};
  const auto r = harness.modeler().flow_info(q);
  EXPECT_FALSE(r.independent->routable);
  EXPECT_FALSE(r.independent->bandwidth.known());
}

TEST(LinkFailureStack, AgentReportsOperStatusOnWire) {
  CmuHarness harness;
  harness.start(1.0);
  snmp::Client client(harness.transport(),
                      snmp::agent_address("whiteface"));
  const auto before =
      client.walk(snmp::oids::kIfTableEntry.child(
          snmp::oids::kIfOperStatusCol));
  for (const auto& vb : before) EXPECT_EQ(vb.value.as_integer(), 1);
  harness.sim().set_link_up(
      link_of(harness.sim(), "m-8", "whiteface"), false);
  const auto after = client.walk(snmp::oids::kIfTableEntry.child(
      snmp::oids::kIfOperStatusCol));
  int down = 0;
  for (const auto& vb : after)
    if (vb.value.as_integer() == 2) ++down;
  EXPECT_EQ(down, 1);
}

}  // namespace
}  // namespace remos
