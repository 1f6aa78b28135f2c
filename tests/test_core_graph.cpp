#include <gtest/gtest.h>

#include <cmath>

#include "core/graph.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace remos::core {
namespace {

GraphNode compute(const std::string& name) {
  GraphNode n;
  n.name = name;
  n.is_compute = true;
  return n;
}

GraphNode router(const std::string& name) {
  GraphNode n;
  n.name = name;
  n.is_compute = false;
  return n;
}

GraphLink link(const std::string& a, const std::string& b, double cap_mbps,
               double used_ab_mbps = -1, double used_ba_mbps = -1,
               double latency_ms = 1.0) {
  GraphLink l;
  l.a = a;
  l.b = b;
  l.capacity = Measurement::exact(mbps(cap_mbps));
  l.latency = Measurement::exact(millis(latency_ms));
  if (used_ab_mbps >= 0)
    l.used_ab = Measurement::from_samples({mbps(used_ab_mbps)});
  if (used_ba_mbps >= 0)
    l.used_ba = Measurement::from_samples({mbps(used_ba_mbps)});
  return l;
}

NetworkGraph y_graph() {
  // a -- r1 -- b, r1 -- r2 -- c
  NetworkGraph g;
  g.add_node(compute("a"));
  g.add_node(compute("b"));
  g.add_node(compute("c"));
  g.add_node(router("r1"));
  g.add_node(router("r2"));
  g.add_link(link("a", "r1", 100));
  g.add_link(link("r1", "b", 100));
  g.add_link(link("r1", "r2", 100, 60, 0));
  g.add_link(link("r2", "c", 100));
  return g;
}

TEST(GraphLink, AvailabilityIsCapacityMinusUsed) {
  const GraphLink l = link("a", "b", 100, 30, 80);
  EXPECT_NEAR(l.available_ab().quartiles.median, mbps(70), 1);
  EXPECT_NEAR(l.available_ba().quartiles.median, mbps(20), 1);
  EXPECT_NEAR(l.available_from("a").quartiles.median, mbps(70), 1);
  EXPECT_NEAR(l.available_from("b").quartiles.median, mbps(20), 1);
  EXPECT_THROW(l.available_from("zz"), InvalidArgument);
}

TEST(GraphLink, UnknownUsageMeansFullCapacity) {
  const GraphLink l = link("a", "b", 100);
  EXPECT_DOUBLE_EQ(l.available_ab().quartiles.median, mbps(100));
}

TEST(GraphLink, QuartileFlipUnderSubtraction) {
  GraphLink l = link("a", "b", 100);
  l.used_ab = Measurement::from_samples({mbps(10), mbps(20), mbps(90)});
  const Measurement avail = l.available_ab();
  // Max usage (90) produces min availability (10).
  EXPECT_NEAR(avail.quartiles.min, mbps(10), 1);
  EXPECT_NEAR(avail.quartiles.max, mbps(90), 1);
  EXPECT_LE(avail.quartiles.q1, avail.quartiles.median);
  EXPECT_LE(avail.quartiles.median, avail.quartiles.q3);
}

TEST(GraphLink, AvailabilityClampsAtZero) {
  GraphLink l = link("a", "b", 10, 50);  // oversubscribed measurement
  EXPECT_DOUBLE_EQ(l.available_ab().quartiles.median, 0.0);
}

TEST(NetworkGraph, BasicShapeAndValidation) {
  NetworkGraph g = y_graph();
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.link_count(), 4u);
  EXPECT_TRUE(g.has_node("a"));
  EXPECT_THROW(g.node("zz"), NotFoundError);
  EXPECT_THROW(g.add_node(compute("a")), InvalidArgument);
  EXPECT_THROW(g.add_link(link("a", "a", 1)), InvalidArgument);
  EXPECT_THROW(g.add_link(link("a", "zz", 1)), InvalidArgument);
  EXPECT_THROW(g.add_link(link("a", "r1", 1)), InvalidArgument);  // dup
  EXPECT_EQ(g.compute_nodes(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(g.neighbors("r1"),
            (std::vector<std::string>{"a", "b", "r2"}));
}

TEST(NetworkGraph, FindLinkEitherOrientation) {
  NetworkGraph g = y_graph();
  bool flipped = true;
  ASSERT_NE(g.find_link("a", "r1", &flipped), nullptr);
  EXPECT_FALSE(flipped);
  ASSERT_NE(g.find_link("r1", "a", &flipped), nullptr);
  EXPECT_TRUE(flipped);
  EXPECT_EQ(g.find_link("a", "b"), nullptr);
}

TEST(NetworkGraph, RouteThroughRouters) {
  NetworkGraph g = y_graph();
  const auto p = g.route("a", "c");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes,
            (std::vector<std::string>{"a", "r1", "r2", "c"}));
  EXPECT_EQ(p->hops(), 3u);
}

TEST(NetworkGraph, ComputeNodesDoNotForward) {
  // a -- b -- c chain where b is a compute node: a cannot reach c via b.
  NetworkGraph g;
  g.add_node(compute("a"));
  g.add_node(compute("b"));
  g.add_node(compute("c"));
  g.add_link(link("a", "b", 100));
  g.add_link(link("b", "c", 100));
  EXPECT_FALSE(g.route("a", "c").has_value());
  EXPECT_EQ(g.bottleneck_available("a", "c"), 0.0);
  EXPECT_TRUE(std::isinf(g.path_latency("a", "c")));
}

/// a and b joined two ways: one logical link hiding a collapsed chain
/// of `hidden` routers (2 ms), or a physical detour a -- r -- b (1 ms per
/// link).
NetworkGraph chain_or_detour(std::size_t hidden) {
  NetworkGraph g;
  g.add_node(compute("a"));
  g.add_node(compute("b"));
  g.add_node(router("r"));
  GraphLink chain = link("a", "b", 100, -1, -1, 2.0);
  for (std::size_t i = 0; i < hidden; ++i)
    chain.abstracts.push_back(numbered("x", i));
  g.add_link(chain);
  g.add_link(link("a", "r", 100));
  g.add_link(link("r", "b", 100));
  return g;
}

TEST(NetworkGraph, CollapsedChainIsNoShortcut) {
  // Three physical hops behind one logical link lose to two real ones.
  const auto detour = chain_or_detour(2).route("a", "b");
  ASSERT_TRUE(detour.has_value());
  EXPECT_EQ(detour->nodes, (std::vector<std::string>{"a", "r", "b"}));
  // One hidden router: two hops and 2 ms either way, and the predecessor
  // whose name sorts first ("a" < "r") wins the tie.
  const auto chain = chain_or_detour(1).route("a", "b");
  ASSERT_TRUE(chain.has_value());
  EXPECT_EQ(chain->nodes, (std::vector<std::string>{"a", "b"}));
}

TEST(NetworkGraph, RoutesFollowEdits) {
  NetworkGraph g = chain_or_detour(1);
  const RouteTree before = g.routes_from("a");
  // Slower chain: the detour now wins the hop tie on latency.
  g.mutable_links()[0].latency = Measurement::exact(millis(5));
  EXPECT_EQ(g.route("a", "b")->nodes,
            (std::vector<std::string>{"a", "r", "b"}));
  // A faster detour added later wins.
  g.add_node(router("s"));
  g.add_link(link("a", "s", 100));
  g.add_link(link("s", "b", 100, -1, -1, 0.5));
  EXPECT_EQ(g.route("a", "b")->nodes,
            (std::vector<std::string>{"a", "s", "b"}));
  // A tree taken earlier is a value: it still answers for the old graph.
  EXPECT_EQ(before.path_to("b")->nodes, (std::vector<std::string>{"a", "b"}));
}

TEST(NetworkGraph, SelfRoute) {
  NetworkGraph g = y_graph();
  const auto p = g.route("a", "a");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->hops(), 0u);
}

TEST(NetworkGraph, BottleneckUsesDirectionalAvailability) {
  NetworkGraph g = y_graph();
  // r1->r2 carries 60 Mbps of traffic; reverse is clean.
  EXPECT_NEAR(g.bottleneck_available("a", "c"), mbps(40), 1);
  EXPECT_NEAR(g.bottleneck_available("c", "a"), mbps(100), 1);
  EXPECT_NEAR(g.bottleneck_available("a", "b"), mbps(100), 1);
}

TEST(NetworkGraph, PathLatencySumsLinks) {
  NetworkGraph g = y_graph();
  EXPECT_NEAR(g.path_latency("a", "c"), millis(3), 1e-9);
  EXPECT_NEAR(g.path_latency("a", "b"), millis(2), 1e-9);
}

TEST(NetworkGraph, ToStringMentionsStructure) {
  NetworkGraph g = y_graph();
  const std::string s = g.to_string();
  EXPECT_NE(s.find("5 nodes"), std::string::npos);
  EXPECT_NE(s.find("r1 -- r2"), std::string::npos);
  EXPECT_NE(s.find("[compute]"), std::string::npos);
}

}  // namespace
}  // namespace remos::core
