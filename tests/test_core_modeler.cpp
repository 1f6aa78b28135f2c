// End-to-end Modeler tests: simulator -> SNMP -> collector -> queries.
#include <gtest/gtest.h>

#include <limits>

#include "apps/harness.hpp"
#include "core/remos_api.hpp"
#include "netsim/traffic.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace remos::core {
namespace {

using apps::CmuHarness;

class ModelerOnTestbed : public ::testing::Test {
 protected:
  ModelerOnTestbed() { harness_.start(10.0); }
  CmuHarness harness_;
};

TEST_F(ModelerOnTestbed, GetGraphPrunesToRelevantSubgraph) {
  // m-4 and m-5 share timberline.  Nothing from aspen or whiteface is
  // relevant, and the unqueried degree-2 router collapses away, leaving
  // a single logical link that abstracts it.
  const NetworkGraph g =
      harness_.modeler().get_graph({"m-4", "m-5"}, Timeframe::current());
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_FALSE(g.has_node("aspen"));
  EXPECT_FALSE(g.has_node("m-1"));
  ASSERT_EQ(g.link_count(), 1u);
  EXPECT_EQ(g.links()[0].abstracts,
            (std::vector<std::string>{"timberline"}));

  // With collapsing disabled the physical star is visible.
  LogicalOptions raw;
  raw.collapse_chains = false;
  const NetworkGraph star = harness_.modeler().get_graph(
      {"m-4", "m-5"}, Timeframe::current(), raw);
  EXPECT_EQ(star.node_count(), 3u);
  EXPECT_TRUE(star.has_node("timberline"));
  EXPECT_EQ(star.link_count(), 2u);
}

TEST_F(ModelerOnTestbed, GetGraphCollapsesInteriorChains) {
  // m-1 (aspen) to m-8 (whiteface): aspen and whiteface each keep degree
  // 2 on the relevant subgraph, so the whole interior collapses into one
  // logical link m-1 -- m-8 that abstracts both routers.
  const NetworkGraph g =
      harness_.modeler().get_graph({"m-1", "m-8"}, Timeframe::current());
  EXPECT_EQ(g.node_count(), 2u);
  ASSERT_EQ(g.link_count(), 1u);
  const GraphLink& l = g.links()[0];
  EXPECT_EQ(l.abstracts.size(), 2u);
  EXPECT_NEAR(l.capacity.mean, mbps(100), 1);
  // Latency adds up across the 3 collapsed hops.
  EXPECT_NEAR(l.latency.mean, 3 * millis(0.2), 1e-6);
}

TEST_F(ModelerOnTestbed, CollapseKeepsQueriedAndBranchingNodes) {
  // With three hosts on three different routers, the routers have degree
  // >= 3 in the relevant subgraph (triangle + access links) and survive.
  const NetworkGraph g = harness_.modeler().get_graph(
      {"m-1", "m-4", "m-7"}, Timeframe::current());
  EXPECT_TRUE(g.has_node("aspen"));
  EXPECT_TRUE(g.has_node("timberline"));
  EXPECT_TRUE(g.has_node("whiteface"));
  EXPECT_EQ(g.node_count(), 6u);
}

TEST_F(ModelerOnTestbed, GetGraphReflectsMeasuredTraffic) {
  netsim::CbrTraffic cbr(harness_.sim(), "m-6", "m-8", mbps(50));
  harness_.sim().run_for(10.0);
  const NetworkGraph g = harness_.modeler().get_graph(
      {"m-4", "m-6", "m-7", "m-8"}, Timeframe::current());
  bool flipped = false;
  const GraphLink* tw = g.find_link("timberline", "whiteface", &flipped);
  ASSERT_NE(tw, nullptr);
  const Measurement used = flipped ? tw->used_ba : tw->used_ab;
  EXPECT_NEAR(used.quartiles.median, mbps(50), mbps(2));
  const Measurement avail =
      flipped ? tw->available_ba() : tw->available_ab();
  EXPECT_NEAR(avail.quartiles.median, mbps(50), mbps(2));
}

TEST_F(ModelerOnTestbed, StaticTimeframeIgnoresTraffic) {
  netsim::CbrTraffic cbr(harness_.sim(), "m-6", "m-8", mbps(90));
  harness_.sim().run_for(10.0);
  const NetworkGraph g = harness_.modeler().get_graph(
      {"m-6", "m-8"}, Timeframe::statics());
  for (const GraphLink& l : g.links()) {
    EXPECT_FALSE(l.used_ab.known());
    EXPECT_DOUBLE_EQ(l.available_ab().quartiles.median, l.capacity.mean);
  }
}

TEST_F(ModelerOnTestbed, HistoryTimeframeAveragesWindow) {
  // 30 s of 80 Mbps followed by 30 s of idle: a 60 s window sees both.
  netsim::CbrTraffic cbr(harness_.sim(), "m-4", "m-5", mbps(80));
  harness_.sim().run_for(30.0);
  cbr.stop();
  harness_.sim().run_for(30.0);
  // The logical m-4 -- m-5 link (timberline collapsed inside).
  const NetworkGraph g = harness_.modeler().get_graph(
      {"m-4", "m-5"}, Timeframe::history(60.0));
  bool flipped = false;
  const GraphLink* l = g.find_link("m-4", "m-5", &flipped);
  ASSERT_NE(l, nullptr);
  const Measurement used = flipped ? l->used_ba : l->used_ab;
  EXPECT_GT(used.quartiles.max, mbps(75));
  EXPECT_LT(used.quartiles.min, mbps(5));
  EXPECT_GT(used.samples, 20u);
  // A short window sees only the idle tail.
  const NetworkGraph g2 = harness_.modeler().get_graph(
      {"m-4", "m-5"}, Timeframe::history(10.0));
  const GraphLink* l2 = g2.find_link("m-4", "m-5", &flipped);
  ASSERT_NE(l2, nullptr);
  const Measurement used2 = flipped ? l2->used_ba : l2->used_ab;
  EXPECT_LT(used2.quartiles.max, mbps(5));
}

TEST_F(ModelerOnTestbed, UnknownNodeRejected) {
  EXPECT_THROW(
      harness_.modeler().get_graph({"m-1", "nope"}, Timeframe::current()),
      NotFoundError);
  EXPECT_THROW(harness_.modeler().get_graph({}, Timeframe::current()),
               InvalidArgument);
}

TEST_F(ModelerOnTestbed, FlowInfoSingleFlowSeesBottleneck) {
  netsim::CbrTraffic cbr(harness_.sim(), "m-6", "m-8", mbps(60));
  harness_.sim().run_for(10.0);
  FlowQuery q;
  q.independent = FlowRequest{"m-4", "m-8", 0};
  q.timeframe = Timeframe::current();
  const FlowQueryResult r = harness_.modeler().flow_info(q);
  ASSERT_TRUE(r.independent.has_value());
  EXPECT_TRUE(r.independent->routable);
  // timberline->whiteface has 40 Mbps left.
  EXPECT_NEAR(r.independent->bandwidth.quartiles.median, mbps(40), mbps(3));
  EXPECT_NEAR(r.independent->latency.mean, 3 * millis(0.2), 1e-6);
}

TEST_F(ModelerOnTestbed, FixedFlowAdmission) {
  FlowQuery q;
  q.fixed.push_back(FlowRequest{"m-4", "m-5", mbps(30)});
  q.fixed.push_back(FlowRequest{"m-4", "m-5", mbps(80)});  // only 70 left
  const FlowQueryResult r = harness_.modeler().flow_info(q);
  ASSERT_EQ(r.fixed.size(), 2u);
  EXPECT_TRUE(r.fixed[0].satisfied);
  EXPECT_NEAR(r.fixed[0].bandwidth.quartiles.median, mbps(30), 1);
  EXPECT_FALSE(r.fixed[1].satisfied);  // filled only to the extent possible
  EXPECT_NEAR(r.fixed[1].bandwidth.quartiles.median, mbps(70), 1);
  EXPECT_FALSE(r.all_fixed_satisfied());
}

TEST_F(ModelerOnTestbed, PaperVariableFlowProportions) {
  // §4.2's example, scaled to the testbed: three variable flows with
  // relative demands 3 : 4.5 : 9 on one shared bottleneck...
  // The access link m-4 -> timberline (100 Mbps) is shared; expected
  // split 3/16.5, 4.5/16.5, 9/16.5 of 100 Mbps.
  FlowQuery q;
  q.variable = {FlowRequest{"m-4", "m-5", 3},
                FlowRequest{"m-4", "m-6", 4.5},
                FlowRequest{"m-4", "m-7", 9}};
  const FlowQueryResult r = harness_.modeler().flow_info(q);
  ASSERT_EQ(r.variable.size(), 3u);
  const double total = mbps(100);
  EXPECT_NEAR(r.variable[0].bandwidth.quartiles.median, total * 3 / 16.5,
              mbps(1));
  EXPECT_NEAR(r.variable[1].bandwidth.quartiles.median, total * 4.5 / 16.5,
              mbps(1));
  EXPECT_NEAR(r.variable[2].bandwidth.quartiles.median, total * 9 / 16.5,
              mbps(1));
}

TEST_F(ModelerOnTestbed, SimultaneousQueryAccountsInternalSharing) {
  // Two independent-class... two variable flows from the same source
  // share the access link: each sees 50, not 100 -- the internal-sharing
  // point of §4.2.  Queried separately they would each report 100.
  FlowQuery together;
  together.variable = {FlowRequest{"m-4", "m-5", 1},
                       FlowRequest{"m-4", "m-6", 1}};
  const FlowQueryResult rt = harness_.modeler().flow_info(together);
  EXPECT_NEAR(rt.variable[0].bandwidth.quartiles.median, mbps(50), 1);
  EXPECT_NEAR(rt.variable[1].bandwidth.quartiles.median, mbps(50), 1);

  FlowQuery alone;
  alone.independent = FlowRequest{"m-4", "m-5", 0};
  const FlowQueryResult ra = harness_.modeler().flow_info(alone);
  EXPECT_NEAR(ra.independent->bandwidth.quartiles.median, mbps(100), 1);
}

TEST_F(ModelerOnTestbed, ThreeClassPriorityOrdering) {
  // fixed (40) is satisfied first, variable splits the rest, independent
  // gets what remains after both.
  FlowQuery q;
  q.fixed = {FlowRequest{"m-4", "m-7", mbps(40)}};
  q.variable = {FlowRequest{"m-4", "m-8", 1}};
  q.independent = FlowRequest{"m-4", "m-6", 0};
  const FlowQueryResult r = harness_.modeler().flow_info(q);
  EXPECT_TRUE(r.fixed[0].satisfied);
  // All three share m-4's access link (100): variable gets 100-40 = 60;
  // independent, after fixed+variable, gets 0.
  EXPECT_NEAR(r.variable[0].bandwidth.quartiles.median, mbps(60), 1);
  EXPECT_NEAR(r.independent->bandwidth.quartiles.median, 0.0, 1);
}

TEST_F(ModelerOnTestbed, FlowQueryValidation) {
  FlowQuery empty;
  EXPECT_THROW(harness_.modeler().flow_info(empty), InvalidArgument);
  FlowQuery self;
  self.fixed = {FlowRequest{"m-1", "m-1", 1}};
  EXPECT_THROW(harness_.modeler().flow_info(self), InvalidArgument);
}

TEST_F(ModelerOnTestbed, PaperShapedApiWrappers) {
  const GraphResult topo = remos_get_graph(
      harness_.modeler(), {"m-4", "m-5", "m-6"}, Timeframe::current());
  EXPECT_TRUE(topo.ok());
  EXPECT_EQ(topo.graph.node_count(), 4u);  // 3 hosts + timberline
  const FlowQueryResult r = remos_flow_info(
      harness_.modeler(), {FlowRequest{"m-4", "m-5", mbps(10)}},
      {FlowRequest{"m-4", "m-6", 2}}, FlowRequest{"m-5", "m-6", 0},
      Timeframe::current());
  EXPECT_TRUE(r.fixed[0].satisfied);
  EXPECT_TRUE(r.independent.has_value());
}

TEST_F(ModelerOnTestbed, QuartilesPropagateThroughFlowQuery) {
  // On-off background on the shared link: flow bandwidth is reported with
  // real spread, not a single number.
  netsim::OnOffTraffic::Config cfg;
  cfg.rate = mbps(80);
  cfg.mean_on = 5.0;
  cfg.mean_off = 5.0;
  cfg.seed = 3;
  netsim::OnOffTraffic gen(harness_.sim(),
                           harness_.sim().topology().id_of("m-6"),
                           harness_.sim().topology().id_of("m-8"), cfg);
  harness_.sim().run_for(200.0);
  FlowQuery q;
  q.independent = FlowRequest{"m-4", "m-8", 0};
  q.timeframe = Timeframe::history(120.0);
  const FlowQueryResult r = harness_.modeler().flow_info(q);
  EXPECT_GT(r.independent->bandwidth.quartiles.spread(), mbps(40));
  EXPECT_GT(r.independent->bandwidth.quartiles.max, mbps(90));
  EXPECT_LT(r.independent->bandwidth.quartiles.min, mbps(40));
  EXPECT_LT(r.independent->bandwidth.accuracy, 1.0);
}

TEST(ModelerFigure1, NodeInternalBandwidthGovernsAggregate) {
  // Figure 1 from raw models (no SNMP needed): 10 Mbps access links, a
  // 100 Mbps trunk, and switch backplanes of either 100 or 10 Mbps.
  for (const double backplane_mbps : {100.0, 10.0}) {
    collector::NetworkModel model;
    model.upsert_node("A", true).internal_bw = mbps(backplane_mbps);
    model.upsert_node("B", true).internal_bw = mbps(backplane_mbps);
    for (int i = 1; i <= 8; ++i) {
      const std::string h = std::to_string(i);
      model.upsert_node(h, false);
      model.upsert_link(h, i <= 4 ? "A" : "B", mbps(10), millis(0.2));
    }
    model.upsert_link("A", "B", mbps(100), millis(0.2));

    Modeler modeler(model);

    FlowQuery q;
    q.variable = {FlowRequest{"1", "5", 1}, FlowRequest{"2", "6", 1},
                  FlowRequest{"3", "7", 1}, FlowRequest{"4", "8", 1}};
    q.timeframe = Timeframe::statics();
    const FlowQueryResult r = modeler.flow_info(q);
    double total = 0;
    for (const FlowResult& f : r.variable)
      total += f.bandwidth.quartiles.median;
    if (backplane_mbps == 100.0) {
      EXPECT_NEAR(total, mbps(40), mbps(1));  // access links limit
    } else {
      EXPECT_NEAR(total, mbps(10), mbps(1));  // switch nodes limit
    }
  }
}

// --- Structured not-found answers (a bad query must not kill a session) ---

/// Tiny host--router--host model for snapshot-mode Modeler tests.
collector::NetworkModel tiny_model() {
  collector::NetworkModel m;
  m.upsert_node("a", false);
  m.upsert_node("b", false);
  m.upsert_node("r", true);
  m.upsert_link("a", "r", mbps(100), millis(0.2));
  m.upsert_link("r", "b", mbps(100), millis(0.2));
  for (collector::ModelLink& l : m.links()) {
    l.last_update = 1.0;
    l.history.record({1.0, mbps(10), mbps(5)});
  }
  return m;
}

TEST(FlowInfoNotFound, UnknownHostYieldsRoutableFalseNotThrow) {
  const collector::NetworkModel m = tiny_model();
  const Modeler modeler(m);
  FlowQuery q;
  q.fixed = {FlowRequest{"a", "ghost", mbps(5)}};
  FlowQueryResult r;
  ASSERT_NO_THROW(r = modeler.flow_info(q));
  ASSERT_EQ(r.fixed.size(), 1u);
  EXPECT_FALSE(r.fixed[0].routable);
  EXPECT_FALSE(r.fixed[0].satisfied);
}

TEST(FlowInfoNotFound, KnownFlowsStillAnsweredNextToUnknownOnes) {
  const collector::NetworkModel m = tiny_model();
  const Modeler modeler(m);
  FlowQuery q;
  q.fixed = {FlowRequest{"a", "b", mbps(5)},
             FlowRequest{"nowhere", "b", mbps(5)}};
  q.variable = {FlowRequest{"a", "phantom", 1}};
  const FlowQueryResult r = modeler.flow_info(q);
  EXPECT_TRUE(r.fixed[0].routable);
  EXPECT_TRUE(r.fixed[0].satisfied);
  EXPECT_FALSE(r.fixed[1].routable);
  EXPECT_FALSE(r.variable[0].routable);
}

TEST(FlowInfoNotFound, MulticastUnknownReceiverYieldsRoutableFalse) {
  const collector::NetworkModel m = tiny_model();
  const Modeler modeler(m);
  FlowQuery q;
  q.multicast = {MulticastRequest{"a", {"b", "ghost"}, mbps(2)}};
  const FlowQueryResult r = modeler.flow_info(q);
  ASSERT_EQ(r.multicast.size(), 1u);
  EXPECT_FALSE(r.multicast[0].routable);
}

TEST(FlowInfoNotFound, AllEndpointsUnknownStillStructured) {
  const collector::NetworkModel m = tiny_model();
  const Modeler modeler(m);
  FlowQuery q;
  q.fixed = {FlowRequest{"x", "y", mbps(5)}};
  const FlowQueryResult r = modeler.flow_info(q);
  EXPECT_FALSE(r.fixed[0].routable);
}

TEST(FlowInfoNotFound, StructurallyMalformedQueriesStillThrow) {
  const collector::NetworkModel m = tiny_model();
  const Modeler modeler(m);
  FlowQuery empty;
  EXPECT_THROW(modeler.flow_info(empty), InvalidArgument);
  FlowQuery self;
  self.fixed = {FlowRequest{"a", "a", mbps(1)}};
  EXPECT_THROW(modeler.flow_info(self), InvalidArgument);
}

// --- Timeframe validation (degenerate durations must not silently
// produce nonsense statistics) ---

TEST(TimeframeValidation, FactoriesRejectDegenerateDurations) {
  EXPECT_THROW(Timeframe::history(0), InvalidArgument);
  EXPECT_THROW(Timeframe::history(-5.0), InvalidArgument);
  EXPECT_THROW(Timeframe::future(10.0, 0), InvalidArgument);
  EXPECT_THROW(Timeframe::future(10.0, -1.0), InvalidArgument);
  EXPECT_THROW(Timeframe::future(-1.0), InvalidArgument);
  EXPECT_NO_THROW(Timeframe::history(30.0));
  EXPECT_NO_THROW(Timeframe::future(10.0));
  EXPECT_NO_THROW(Timeframe::current());
  EXPECT_NO_THROW(Timeframe::statics());
}

TEST(TimeframeValidation, HandBuiltTimeframesAreValidatedAtUse) {
  const collector::NetworkModel m = tiny_model();
  const Modeler modeler(m);
  Timeframe inverted;  // negative window = an inverted history range
  inverted.kind = Timeframe::Kind::kHistory;
  inverted.window = -30.0;
  EXPECT_THROW(modeler.get_graph({"a", "b"}, inverted), InvalidArgument);

  Timeframe nan_frame;
  nan_frame.kind = Timeframe::Kind::kFuture;
  nan_frame.window = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(modeler.get_graph({"a", "b"}, nan_frame), InvalidArgument);

  FlowQuery q;
  q.fixed = {FlowRequest{"a", "b", mbps(1)}};
  q.timeframe.kind = Timeframe::Kind::kHistory;
  q.timeframe.window = 0;
  EXPECT_THROW(modeler.flow_info(q), InvalidArgument);
}

TEST(TimeframeValidation, RejectedGraphQueriesAreNotCounted) {
  // remos_modeler_graph_queries_total counts the queries the Modeler
  // accepted, as the flow counter does: a rejected timeframe adds nothing.
  const collector::NetworkModel m = tiny_model();
  obs::Observability o;
  const ModelerObs handles = ModelerObs::resolve(o.view());
  Modeler modeler(m);
  modeler.set_obs(&handles);
  const obs::Counter graphs =
      o.metrics.counter("remos_modeler_graph_queries_total");

  Timeframe inverted;
  inverted.kind = Timeframe::Kind::kHistory;
  inverted.window = -30.0;
  const GraphResult rejected = modeler.get_graph_result({"a", "b"}, inverted);
  EXPECT_EQ(rejected.status, obs::GraphStatus::kInvalid);
  EXPECT_EQ(graphs.value(), 0u);

  const GraphResult answered =
      modeler.get_graph_result({"a", "b"}, Timeframe::current());
  EXPECT_EQ(answered.status, obs::GraphStatus::kOk);
  EXPECT_EQ(graphs.value(), 1u);
}

TEST(TimeframeValidation, SnapshotModelerMatchesLiveModeler) {
  // Snapshot mode answers the same query the same way a live collector
  // does -- the service layer depends on this equivalence.
  const collector::NetworkModel m = tiny_model();
  const Modeler snap(m);
  const NetworkGraph g = snap.get_graph({"a", "b"}, Timeframe::current());
  EXPECT_TRUE(g.has_node("a"));
  EXPECT_TRUE(g.has_node("b"));
  ASSERT_GE(g.link_count(), 1u);
}

}  // namespace
}  // namespace remos::core
