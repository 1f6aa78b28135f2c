#include <gtest/gtest.h>

#include "netsim/routing.hpp"
#include "netsim/testbeds.hpp"
#include "util/error.hpp"

namespace remos::netsim {
namespace {

class CmuRouting : public ::testing::Test {
 protected:
  CmuRouting() : topo_(make_cmu_testbed()), routes_(topo_) {}
  NodeId id(const std::string& n) const { return topo_.id_of(n); }

  Topology topo_;
  RoutingTable routes_;
};

TEST_F(CmuRouting, SelfRouteIsTrivial) {
  const Path& p = routes_.route(id("m-1"), id("m-1"));
  EXPECT_EQ(p.hops(), 0u);
  ASSERT_EQ(p.nodes.size(), 1u);
  EXPECT_EQ(p.nodes[0], id("m-1"));
}

TEST_F(CmuRouting, SameRouterPairIsTwoHops) {
  const Path& p = routes_.route(id("m-4"), id("m-5"));
  EXPECT_EQ(p.hops(), 2u);
  EXPECT_EQ(p.nodes[1], id("timberline"));
}

TEST_F(CmuRouting, CrossRouterPairIsThreeHops) {
  // The paper: "any node can be reached from any other node with at most
  // 3 hops".
  const Path& p = routes_.route(id("m-6"), id("m-8"));
  EXPECT_EQ(p.hops(), 3u);
  EXPECT_EQ(p.nodes[1], id("timberline"));
  EXPECT_EQ(p.nodes[2], id("whiteface"));
  for (const auto& a : CmuNames::hosts()) {
    for (const auto& b : CmuNames::hosts()) {
      if (a != b) {
        EXPECT_LE(routes_.route(id(a), id(b)).hops(), 3u);
      }
    }
  }
}

TEST_F(CmuRouting, RoutesNeverTransitComputeNodes) {
  for (const auto& a : CmuNames::hosts()) {
    for (const auto& b : CmuNames::hosts()) {
      if (a == b) continue;
      const Path& p = routes_.route(id(a), id(b));
      for (std::size_t i = 1; i + 1 < p.nodes.size(); ++i)
        EXPECT_EQ(topo_.node(p.nodes[i]).kind, NodeKind::kNetwork)
            << a << "->" << b;
    }
  }
}

TEST_F(CmuRouting, PathNodeAndLinkSequencesAgree) {
  for (const auto& a : CmuNames::hosts()) {
    for (const auto& b : CmuNames::hosts()) {
      if (a == b) continue;
      const Path& p = routes_.route(id(a), id(b));
      ASSERT_EQ(p.nodes.size(), p.links.size() + 1);
      EXPECT_EQ(p.nodes.front(), id(a));
      EXPECT_EQ(p.nodes.back(), id(b));
      for (std::size_t i = 0; i < p.links.size(); ++i) {
        const Link& l = topo_.link(p.links[i]);
        EXPECT_EQ(l.other(p.nodes[i]), p.nodes[i + 1]);
      }
    }
  }
}

TEST_F(CmuRouting, RoutesAreSymmetricInLength) {
  for (const auto& a : CmuNames::hosts())
    for (const auto& b : CmuNames::hosts())
      EXPECT_EQ(routes_.route(id(a), id(b)).hops(),
                routes_.route(id(b), id(a)).hops());
}

TEST_F(CmuRouting, LatencyAndCapacityAccessors) {
  EXPECT_DOUBLE_EQ(routes_.path_latency(id("m-4"), id("m-5")),
                   2 * millis(0.2));
  EXPECT_DOUBLE_EQ(routes_.path_latency(id("m-6"), id("m-8")),
                   3 * millis(0.2));
  EXPECT_DOUBLE_EQ(routes_.path_capacity(id("m-6"), id("m-8")), mbps(100));
}

TEST_F(CmuRouting, ReachableAndErrors) {
  EXPECT_TRUE(routes_.reachable(id("m-1"), id("m-8")));
  EXPECT_THROW(routes_.route(static_cast<NodeId>(99), id("m-1")),
               NotFoundError);
}

TEST(Routing, UnreachablePartitionReported) {
  Topology t;
  const NodeId a = t.add_node("a", NodeKind::kCompute);
  const NodeId b = t.add_node("b", NodeKind::kCompute);
  RoutingTable routes(t);
  EXPECT_FALSE(routes.reachable(a, b));
  EXPECT_THROW(routes.route(a, b), NotFoundError);
}

TEST(Routing, PrefersFewerHopsOverLatency) {
  // Direct 2-link path through r1 (slow) vs 3-link path through r2,r3
  // (fast): hop-count-first routing picks the 2-link path.
  Topology t;
  const NodeId a = t.add_node("a", NodeKind::kCompute);
  const NodeId b = t.add_node("b", NodeKind::kCompute);
  const NodeId r1 = t.add_node("r1", NodeKind::kNetwork);
  const NodeId r2 = t.add_node("r2", NodeKind::kNetwork);
  const NodeId r3 = t.add_node("r3", NodeKind::kNetwork);
  t.add_link(a, r1, mbps(10), millis(50));
  t.add_link(r1, b, mbps(10), millis(50));
  t.add_link(a, r2, mbps(10), millis(1));
  t.add_link(r2, r3, mbps(10), millis(1));
  t.add_link(r3, b, mbps(10), millis(1));
  RoutingTable routes(t);
  EXPECT_EQ(routes.route(a, b).hops(), 2u);
}

TEST(Routing, BreaksHopTiesByLatency) {
  Topology t;
  const NodeId a = t.add_node("a", NodeKind::kCompute);
  const NodeId b = t.add_node("b", NodeKind::kCompute);
  const NodeId slow = t.add_node("slow", NodeKind::kNetwork);
  const NodeId fast = t.add_node("fast", NodeKind::kNetwork);
  t.add_link(a, slow, mbps(10), millis(10));
  t.add_link(slow, b, mbps(10), millis(10));
  t.add_link(a, fast, mbps(10), millis(1));
  t.add_link(fast, b, mbps(10), millis(1));
  RoutingTable routes(t);
  const Path& p = routes.route(a, b);
  ASSERT_EQ(p.hops(), 2u);
  EXPECT_EQ(p.nodes[1], fast);
}

TEST(Routing, ExactTiesGoToThePredecessorWhoseNameSortsFirst) {
  // Two equal routes a -> {w2, w10} -> b.  w2 has the lower id, but
  // "w10" sorts first: names, not ids, are what every plane shares.
  Topology t;
  const NodeId a = t.add_node("a", NodeKind::kCompute);
  const NodeId b = t.add_node("b", NodeKind::kCompute);
  const NodeId w2 = t.add_node("w2", NodeKind::kNetwork);
  const NodeId w10 = t.add_node("w10", NodeKind::kNetwork);
  for (const NodeId w : {w2, w10}) {
    t.add_link(a, w, mbps(10), millis(1));
    t.add_link(w, b, mbps(10), millis(1));
  }
  RoutingTable routes(t);
  EXPECT_EQ(routes.route(a, b).nodes[1], w10);
}

}  // namespace
}  // namespace remos::netsim
