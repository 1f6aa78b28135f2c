// Edge cases of logical-topology generation and timeframe plumbing that
// the happy-path tests do not reach.
#include <gtest/gtest.h>

#include "apps/harness.hpp"
#include "collector/network_model.hpp"
#include "core/modeler.hpp"
#include "core/predictor.hpp"
#include "netsim/traffic.hpp"
#include "util/error.hpp"

namespace remos::core {
namespace {

using collector::NetworkModel;

/// host1 -- r1 -- r2 -- r3 -- host2 chain.
NetworkModel chain_model() {
  NetworkModel m;
  m.upsert_node("host1", false);
  m.upsert_node("host2", false);
  for (int i = 1; i <= 3; ++i)
    m.upsert_node("r" + std::to_string(i), true);
  m.upsert_link("host1", "r1", mbps(100), millis(1));
  m.upsert_link("r1", "r2", mbps(40), millis(2));
  m.upsert_link("r2", "r3", mbps(60), millis(3));
  m.upsert_link("r3", "host2", mbps(100), millis(1));
  return m;
}

TEST(LogicalEdge, LongChainCollapsesToOneLinkWithMinCapSumLatency) {
  const NetworkModel m = chain_model();
  Modeler modeler(m);
  const NetworkGraph g =
      modeler.get_graph({"host1", "host2"}, Timeframe::statics());
  EXPECT_EQ(g.node_count(), 2u);
  ASSERT_EQ(g.link_count(), 1u);
  const GraphLink& l = g.links()[0];
  EXPECT_DOUBLE_EQ(l.capacity.mean, mbps(40));  // min along the chain
  EXPECT_NEAR(l.latency.mean, millis(7), 1e-9);  // sum along the chain
  EXPECT_EQ(l.abstracts.size(), 3u);
}

TEST(LogicalEdge, QueriedRouterIsNeverCollapsed) {
  const NetworkModel m = chain_model();
  Modeler modeler(m);
  const NetworkGraph g =
      modeler.get_graph({"host1", "host2", "r2"}, Timeframe::statics());
  EXPECT_TRUE(g.has_node("r2"));
  EXPECT_EQ(g.node_count(), 3u);  // r1 and r3 still collapse
  EXPECT_EQ(g.link_count(), 2u);
}

TEST(LogicalEdge, RouterWithInternalBandwidthSurvivesCollapse) {
  NetworkModel m = chain_model();
  m.node("r2").internal_bw = mbps(30);  // a constraint: must stay visible
  Modeler modeler(m);
  const NetworkGraph g =
      modeler.get_graph({"host1", "host2"}, Timeframe::statics());
  EXPECT_TRUE(g.has_node("r2"));
  ASSERT_TRUE(g.node("r2").internal_bw.known());
  EXPECT_DOUBLE_EQ(g.node("r2").internal_bw.mean, mbps(30));
  // And it constrains flows through the chain.
  FlowQuery q;
  q.independent = FlowRequest{"host1", "host2", 0};
  q.timeframe = Timeframe::statics();
  const auto r = modeler.flow_info(q);
  EXPECT_NEAR(r.independent->bandwidth.quartiles.median, mbps(30), 1);
}

TEST(LogicalEdge, CollapsedUsageIsWorstOfTheChainPerDirection) {
  NetworkModel m = chain_model();
  // 25 Mbps toward host2 on the r1-r2 hop (40 cap -> 15 avail);
  // 10 Mbps toward host1 on the r2-r3 hop (60 cap -> 50 avail).
  bool flipped = false;
  collector::ModelLink* l12 = m.find_link("r1", "r2", &flipped);
  collector::Sample s12;
  s12.at = 1.0;
  (flipped ? s12.used_ba : s12.used_ab) = mbps(25);
  l12->history.record(s12);
  collector::ModelLink* l23 = m.find_link("r2", "r3", &flipped);
  collector::Sample s23;
  s23.at = 1.0;
  (flipped ? s23.used_ab : s23.used_ba) = mbps(10);
  l23->history.record(s23);

  Modeler modeler(m);
  const NetworkGraph g =
      modeler.get_graph({"host1", "host2"}, Timeframe::current());
  ASSERT_EQ(g.link_count(), 1u);
  const GraphLink& l = g.links()[0];
  const bool fwd = l.a == "host1";
  const Measurement toward2 = fwd ? l.available_ab() : l.available_ba();
  const Measurement toward1 = fwd ? l.available_ba() : l.available_ab();
  // Toward host2: bottleneck is the loaded 40 Mbps hop -> 15 available.
  EXPECT_NEAR(toward2.quartiles.median, mbps(15), 1);
  // Toward host1: bottleneck is min(40 clean, 60-10=50, ...) = 40.
  EXPECT_NEAR(toward1.quartiles.median, mbps(40), 1);
}

TEST(LogicalEdge, ParallelPathsDoNotCollapseIntoMultigraph) {
  // host1 and host2 joined by TWO disjoint router chains: collapsing
  // both would create parallel host1--host2 links; the builder must keep
  // the junctions instead.
  NetworkModel m;
  m.upsert_node("host1", false);
  m.upsert_node("host2", false);
  m.upsert_node("ra", true);
  m.upsert_node("rb", true);
  m.upsert_node("j1", true);
  m.upsert_node("j2", true);
  m.upsert_link("host1", "j1", mbps(100), millis(1));
  m.upsert_link("j1", "ra", mbps(100), millis(1));
  m.upsert_link("j1", "rb", mbps(50), millis(1));
  m.upsert_link("ra", "j2", mbps(100), millis(1));
  m.upsert_link("rb", "j2", mbps(50), millis(1));
  m.upsert_link("j2", "host2", mbps(100), millis(1));
  Modeler modeler(m);
  core::LogicalOptions keep;
  keep.keep_all = true;  // both branches are relevant
  const NetworkGraph g =
      modeler.get_graph({"host1", "host2"}, Timeframe::statics(), keep);
  // No duplicate links; the graph stays simple and routable.
  EXPECT_TRUE(g.route("host1", "host2").has_value());
  std::set<std::pair<std::string, std::string>> seen;
  for (const GraphLink& l : g.links()) {
    const auto key = std::minmax(l.a, l.b);
    EXPECT_TRUE(seen.insert({key.first, key.second}).second)
        << "duplicate " << l.a << "--" << l.b;
  }
}

TEST(LogicalEdge, FutureTimeframeFlowQueryUsesPredictor) {
  apps::CmuHarness harness;
  harness.start(5.0);
  // Ramp usage so last-value and window-mean disagree.
  netsim::CbrTraffic low(harness.sim(), "m-4", "m-5", mbps(10));
  harness.sim().run_for(30.0);
  low.stop();
  netsim::CbrTraffic high(harness.sim(), "m-4", "m-5", mbps(80));
  harness.sim().run_for(10.0);

  FlowQuery q;
  q.independent = FlowRequest{"m-6", "m-5", 0};  // shares t->m-5 link
  q.timeframe = Timeframe::future(10.0, 40.0);

  harness.modeler().set_predictor(
      std::make_unique<LastValuePredictor>());
  const auto recent = harness.modeler().flow_info(q);
  harness.modeler().set_predictor(
      std::make_unique<WindowMeanPredictor>());
  const auto averaged = harness.modeler().flow_info(q);
  // Last-value sees the 80 Mbps regime (≈20 left); the window mean sees
  // mostly the 10 Mbps era (much more left).
  EXPECT_LT(recent.independent->bandwidth.quartiles.median, mbps(30));
  EXPECT_GT(averaged.independent->bandwidth.quartiles.median, mbps(50));
}

TEST(LogicalEdge, HistoryWindowBeyondRawRingAnswersFromRollups) {
  // A link whose raw ring retains only 16 samples (32 s at 2 s polls)
  // but whose rollup cascade has absorbed 800 s of them: a 320 s
  // history window (10x the ring) must answer non-truncated, from
  // sealed buckets, close to the raw ground truth.
  collector::ModelLink link;
  link.a = "r1";
  link.b = "r2";
  link.capacity = mbps(100);
  link.history = collector::LinkHistory(16);
  std::vector<TimedSample> truth;
  Seconds t = 0;
  for (int i = 0; i < 400; ++i) {
    t += 2.0;
    collector::Sample s;
    s.at = t;
    s.used_ab = mbps(i % 2 == 0 ? 20 : 40);
    s.used_ba = 0;
    link.history.record(s);
    if (t > 800.0 - 320.0) truth.push_back({t, s.used_ab});
  }

  LastValuePredictor predictor;
  obs::WindowStats w;
  const Measurement m = used_for_timeframe(
      link.history, Timeframe::history(320.0), t, true, predictor, &w);
  EXPECT_FALSE(w.truncated);
  EXPECT_GT(w.rollup_buckets, 0u);
  EXPECT_NEAR(m.mean, mbps(30), mbps(2));
  EXPECT_GE(m.quartiles.min, mbps(20) - 1.0);
  EXPECT_LE(m.quartiles.max, mbps(40) + 1.0);
  EXPECT_DOUBLE_EQ(m.accuracy, w.measurement.accuracy);
}

TEST(LogicalEdge, HistoryWindowPastRetentionDegradesHonestly) {
  collector::ModelLink link;
  link.history = collector::LinkHistory(16);
  Seconds t = 0;
  for (int i = 0; i < 100; ++i) {  // 200 s of data
    t += 2.0;
    collector::Sample s;
    s.at = t;
    s.used_ab = mbps(10);
    link.history.record(s);
  }
  LastValuePredictor predictor;
  obs::WindowStats covered, past;
  const Measurement honest = used_for_timeframe(
      link.history, Timeframe::history(150.0), t, true, predictor,
      &covered);
  const Measurement stretched = used_for_timeframe(
      link.history, Timeframe::history(4000.0), t, true, predictor, &past);
  EXPECT_FALSE(covered.truncated);
  EXPECT_TRUE(past.truncated);
  EXPECT_LT(past.coverage(), 0.06);
  // Same underlying data, but the over-long request answers with a
  // coverage-discounted accuracy instead of pretending full knowledge.
  EXPECT_NEAR(stretched.mean, honest.mean, 1.0);
  EXPECT_LT(stretched.accuracy, honest.accuracy * 0.1);
}

TEST(LogicalEdge, DisconnectedQueriedNodesYieldPartialGraph) {
  NetworkModel m = chain_model();
  m.upsert_node("island", false);  // no links at all
  Modeler modeler(m);
  const NetworkGraph g =
      modeler.get_graph({"host1", "island"}, Timeframe::statics());
  EXPECT_TRUE(g.has_node("host1"));
  EXPECT_TRUE(g.has_node("island"));
  EXPECT_FALSE(g.route("host1", "island").has_value());
}

}  // namespace
}  // namespace remos::core
