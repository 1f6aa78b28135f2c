// Route agreement and idle-network prediction across the three planes.
//
// The simulator (netsim::RoutingTable), the collector
// (NetworkModel::routing_index) and the Modeler (the logical path a flow
// is charged on) must route every flow identically, or flow_info prices
// links the flow never crosses.  These suites check that on every
// generator family, then check the consequence end to end: on an idle
// network, flow_info's predicted rate is exactly the rate the simulator
// delivers to the same flows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "collector/network_model.hpp"
#include "core/logical.hpp"
#include "core/modeler.hpp"
#include "netsim/generators.hpp"
#include "netsim/routing.hpp"
#include "netsim/simulator.hpp"
#include "netsim/testbeds.hpp"
#include "util/rng.hpp"

namespace remos {
namespace {

/// A topology as a completed discovery pass leaves it, with one quiet
/// usage sample per link (the construction the scale benches use).
collector::NetworkModel model_of(const netsim::Topology& topo) {
  collector::NetworkModel model;
  for (const netsim::Node& n : topo.nodes())
    model.upsert_node(n.name, n.kind == netsim::NodeKind::kNetwork)
        .internal_bw = n.internal_bw;
  for (const netsim::Link& l : topo.links()) {
    collector::ModelLink& ml = model.upsert_link(
        topo.name_of(l.a), topo.name_of(l.b), l.capacity, l.latency);
    ml.last_update = 1.0;
    ml.history.record(collector::Sample{1.0, 0.0, 0.0});
  }
  return model;
}

/// `k` distinct compute-node names drawn with `rng` (all of them when the
/// topology has no more than k).
std::vector<std::string> pick_hosts(const netsim::Topology& topo,
                                    std::size_t k, Rng& rng) {
  std::vector<std::string> hosts;
  for (const netsim::NodeId id : topo.compute_nodes())
    hosts.push_back(topo.name_of(id));
  for (std::size_t i = 0; i < std::min(k, hosts.size()); ++i)
    std::swap(hosts[i], hosts[i + rng.below(hosts.size() - i)]);
  hosts.resize(std::min(k, hosts.size()));
  return hosts;
}

struct Family {
  std::string name;
  std::function<netsim::Topology()> make;
};

std::string family_name(const ::testing::TestParamInfo<Family>& info) {
  return info.param.name;
}

void PrintTo(const Family& family, std::ostream* os) { *os << family.name; }

netsim::Topology fat_tree(std::size_t k, BitsPerSec host_rate) {
  netsim::FatTreeParams p;
  p.k = k;
  p.host_rate = host_rate;
  return netsim::make_fat_tree(p);
}

netsim::Topology dumbbell(std::size_t trunk_hops, BitsPerSec access_rate) {
  netsim::DumbbellParams p;
  p.trunk_hops = trunk_hops;
  p.access_rate = access_rate;
  return netsim::make_dumbbell(p);
}

netsim::Topology waxman(std::size_t hosts, std::size_t routers,
                        std::uint64_t seed, BitsPerSec host_rate) {
  netsim::WaxmanParams p;
  p.hosts = hosts;
  p.routers = routers;
  p.seed = seed;
  p.host_rate = host_rate;
  return netsim::make_waxman(p);
}

// --- route agreement -------------------------------------------------------

/// "" if the logical hops, from `src`, expand through their links'
/// abstracts into exactly `physical` (node names, source first);
/// otherwise what differs.  Abstracts are sorted, so each hidden chain
/// is compared as a set.
std::string expansion_mismatch(
    const core::NetworkGraph& graph, const std::string& src,
    const std::vector<core::LogicalTopology::Hop>& hops,
    const std::vector<std::string>& physical) {
  std::size_t at = 0;
  std::string node = src;
  for (std::size_t k = 0;; ++k) {
    if (at >= physical.size() || physical[at] != node)
      return "logical node " + node + " off the route";
    ++at;
    if (k == hops.size()) break;
    const core::GraphLink& l = graph.links()[hops[k].link];
    if ((hops[k].forward ? l.a : l.b) != node)
      return "hop " + l.a + "--" + l.b + " does not leave " + node;
    node = hops[k].forward ? l.b : l.a;
    if (at + l.abstracts.size() > physical.size())
      return "route too short for " + l.a + "--" + l.b;
    std::vector<std::string> hidden(
        physical.begin() + static_cast<std::ptrdiff_t>(at),
        physical.begin() +
            static_cast<std::ptrdiff_t>(at + l.abstracts.size()));
    std::sort(hidden.begin(), hidden.end());
    if (hidden != l.abstracts)
      return "link " + l.a + "--" + l.b + " hides other nodes";
    at += l.abstracts.size();
  }
  if (at != physical.size()) return "logical path ends early";
  return "";
}

class RouteAgreement : public ::testing::TestWithParam<Family> {};

TEST_P(RouteAgreement, SimulatorCollectorAndModelerRouteAlike) {
  const netsim::Topology topo = GetParam().make();
  const netsim::Simulator sim(topo);
  const collector::NetworkModel model = model_of(topo);
  const collector::RoutingIndex& index = model.routing_index();

  Rng rng(0x5eed0000u + topo.node_count());
  std::size_t pairs = 0, disagreements = 0;
  std::string first;
  for (const std::size_t group_size : {2u, 6u, 16u}) {
    for (int rep = 0; rep < 3; ++rep) {
      const std::vector<std::string> group =
          pick_hosts(topo, group_size, rng);
      std::vector<std::int32_t> ids;
      for (const std::string& h : group) ids.push_back(index.id_of(h));
      std::sort(ids.begin(), ids.end());
      const core::LogicalTopology logical = core::build_logical_topology(
          model, ids, core::Timeframe::statics(), 1.0,
          core::LastValuePredictor{}, core::LogicalOptions{});
      // The same graph named; its links are in link-table order.
      const core::NetworkGraph named = core::build_logical_graph(
          model, group, core::Timeframe::statics(), 1.0,
          core::LastValuePredictor{}, core::LogicalOptions{});
      std::vector<core::LogicalTopology::Hop> hops;
      for (const std::string& a : group) {
        for (const std::string& b : group) {
          if (a == b) continue;
          ++pairs;
          // 1. The simulator's route.
          std::vector<std::string> simulated;
          for (const netsim::NodeId n :
               sim.routing().route(topo.id_of(a), topo.id_of(b)).nodes)
            simulated.push_back(topo.name_of(n));
          // 2. The collector's row walk.
          std::vector<std::string> collected;
          const collector::RoutingIndex::Row& row =
              index.row_from(index.id_of(a));
          for (std::int32_t cur = index.id_of(b);;
               cur = row.prev_node[static_cast<std::size_t>(cur)]) {
            collected.insert(collected.begin(), index.name_of(cur));
            if (cur == index.id_of(a)) break;
          }
          // 3. The logical hops the Modeler charges the flow on.
          std::string why;
          if (collected != simulated)
            why = "collector row differs";
          else if (!logical.route(index, index.id_of(a), index.id_of(b),
                                  hops))
            why = "Modeler finds no logical path";
          else
            why = expansion_mismatch(named, a, hops, simulated);
          if (!why.empty()) {
            ++disagreements;
            if (first.empty()) first = a + "->" + b + ": " + why;
          }
        }
      }
    }
  }
  EXPECT_EQ(disagreements, 0u)
      << disagreements << " of " << pairs << " ordered pairs disagree; first "
      << first;
}

INSTANTIATE_TEST_SUITE_P(
    Families, RouteAgreement,
    ::testing::Values(
        Family{"Cmu", [] { return netsim::make_cmu_testbed(); }},
        Family{"Figure1", [] { return netsim::make_figure1(mbps(100)); }},
        Family{"FatTree4", [] { return fat_tree(4, mbps(1000)); }},
        Family{"FatTree8", [] { return fat_tree(8, mbps(1000)); }},
        Family{"Dumbbell1", [] { return dumbbell(1, mbps(100)); }},
        Family{"Dumbbell3", [] { return dumbbell(3, mbps(100)); }},
        Family{"Waxman64Seed1", [] { return waxman(64, 16, 1, mbps(100)); }},
        Family{"Waxman64Seed2", [] { return waxman(64, 16, 2, mbps(100)); }},
        Family{"Waxman64Seed3", [] { return waxman(64, 16, 3, mbps(100)); }},
        Family{"Waxman64Seed4", [] { return waxman(64, 16, 4, mbps(100)); }},
        Family{"Waxman64Seed5", [] { return waxman(64, 16, 5, mbps(100)); }},
        Family{"Waxman1024Seed7",
               [] { return waxman(1024, 256, 7, mbps(100)); }}),
    family_name);

// --- predicted = delivered on an idle network --------------------------------

class IdlePrediction : public ::testing::TestWithParam<Family> {};

TEST_P(IdlePrediction, FlowInfoPredictsTheSimulatedRate) {
  const netsim::Topology topo = GetParam().make();
  const collector::NetworkModel model = model_of(topo);
  const core::Modeler modeler(model);
  // Fewer queries on the 1024-host mesh keep the suite fast under TSan.
  const int queries = topo.compute_nodes().size() >= 1024 ? 20 : 30;

  Rng rng(0x1d1e0000u + topo.node_count());
  std::size_t flows = 0, wrong = 0;
  double worst = 1.0;
  for (int q = 0; q < queries; ++q) {
    // 6-host all-to-all, weights 1-4 Mbps.
    const std::vector<std::string> hosts = pick_hosts(topo, 6, rng);
    core::FlowQuery query;
    for (const std::string& a : hosts)
      for (const std::string& b : hosts)
        if (a != b)
          query.variable.push_back(
              {a, b, mbps(static_cast<double>(1 + rng.below(4)))});
    const core::FlowQueryResult predicted = modeler.flow_info(query);

    netsim::Simulator sim(topo);
    std::vector<netsim::FlowId> ids;
    for (const core::FlowRequest& f : query.variable) {
      netsim::FlowOptions options;
      options.weight = f.requested;
      ids.push_back(sim.start_flow(f.src, f.dst, options));
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ++flows;
      const double want = sim.flow_rate(ids[i]);
      const double got = predicted.variable[i].bandwidth.quartiles.median;
      if (std::abs(got - want) > 1e-9 * want) {
        ++wrong;
        worst = std::max(worst, std::max(got / want, want / got));
      }
    }
  }
  EXPECT_EQ(wrong, 0u) << wrong << " of " << flows
                       << " flows mispredicted; worst off by " << worst
                       << "x";
}

// Hosts faster than trunks (10 Gbps), so the route decides the rate.
INSTANTIATE_TEST_SUITE_P(
    Families, IdlePrediction,
    ::testing::Values(
        Family{"Cmu", [] { return netsim::make_cmu_testbed(); }},
        Family{"FatTree8", [] { return fat_tree(8, mbps(10'000)); }},
        Family{"Dumbbell3", [] { return dumbbell(3, mbps(10'000)); }},
        Family{"Waxman64Seed1", [] { return waxman(64, 16, 1, mbps(10'000)); }},
        Family{"Waxman64Seed2", [] { return waxman(64, 16, 2, mbps(10'000)); }},
        Family{"Waxman64Seed3", [] { return waxman(64, 16, 3, mbps(10'000)); }},
        Family{"Waxman1024Seed7",
               [] { return waxman(1024, 256, 7, mbps(10'000)); }}),
    family_name);

// --- the shared row memo -----------------------------------------------------

TEST(RouteKernel, ConcurrentRowsMatchSerialRows) {
  const collector::NetworkModel model = model_of(waxman(256, 64, 3, mbps(100)));
  const collector::NetworkModel serial_copy = model;  // copies start cold
  const collector::RoutingIndex& shared = model.routing_index();
  const collector::RoutingIndex& serial = serial_copy.routing_index();
  const auto n = static_cast<std::int32_t>(shared.node_count());

  // 8 threads request every row, each in its own shuffled order.
  std::vector<const collector::RoutingIndex::Row*> seen(
      8 * static_cast<std::size_t>(n), nullptr);
  std::vector<std::thread> threads;
  for (std::int32_t t = 0; t < 8; ++t) {
    std::vector<std::int32_t> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    Rng rng(static_cast<std::uint64_t>(t) + 1);
    std::shuffle(order.begin(), order.end(), rng);
    threads.emplace_back([&, t, order] {
      for (const std::int32_t src : order)
        seen[static_cast<std::size_t>(t * n + src)] = &shared.row_from(src);
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::int32_t src = 0; src < n; ++src) {
    const collector::RoutingIndex::Row& want = serial.row_from(src);
    for (std::int32_t t = 0; t < 8; ++t) {
      const collector::RoutingIndex::Row* got =
          seen[static_cast<std::size_t>(t * n + src)];
      ASSERT_NE(got, nullptr) << "thread " << t << " skipped row " << src;
      // Every thread got the one memoized row ...
      EXPECT_EQ(got, &shared.row_from(src));
      // ... and it is the row a serial search builds.
      EXPECT_EQ(got->prev_node, want.prev_node) << "row " << src;
      EXPECT_EQ(got->prev_link, want.prev_link) << "row " << src;
    }
  }
}

}  // namespace
}  // namespace remos
