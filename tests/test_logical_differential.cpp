// Differential oracle for the logical-graph build.
//
// The reference below is the string-keyed build that collapsed chains
// with a restart loop -- collapse the first eligible router in name
// order, rebuild the incident map, start over -- kept verbatim, as the
// repo keeps max_min_allocate beside the incremental solver.  The
// id-based one-pass build, named by build_logical_graph, must give the
// same graph bit for bit: node set and fields, link order, orientation,
// abstracts and every Measurement.  The named graph must be the id-only
// topology with names attached, in link-table order.  Each flow's route
// through the build's link table must also match projecting the model's
// route onto the named graph, the way flows were routed before the
// link table.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "collector/network_model.hpp"
#include "core/logical.hpp"
#include "netsim/generators.hpp"
#include "netsim/testbeds.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace remos::core {
namespace {

using collector::ModelLink;
using collector::ModelNode;
using collector::NetworkModel;
using collector::RoutingIndex;

Measurement exactish(double v) { return Measurement::exact(v); }

// --- the reference: the restart-loop build, verbatim --------------------

NetworkGraph reference_build(const NetworkModel& model,
                             const std::vector<std::string>& nodes,
                             const Timeframe& timeframe, Seconds now,
                             const Predictor& predictor,
                             const LogicalOptions& options) {
  if (nodes.empty())
    throw InvalidArgument("build_logical_graph: empty node set");
  std::set<std::string> queried;
  for (const std::string& n : nodes) {
    model.node(n);  // throws NotFoundError if unknown
    queried.insert(n);
  }

  // 1. Relevant subgraph: union of the routes between every *ordered*
  // pair of queried nodes (under ties b->a need not retrace a->b), from
  // the model's cached RoutingIndex rows.  Each pair walk is O(path
  // length) and collects the links it crosses, so this step and the
  // annotation below cost O(kept links), not O(model).
  std::set<std::string> keep_nodes;
  std::vector<std::uint32_t> kept;  // indices into model.links(), all up
  if (options.keep_all) {
    for (const auto& [name, n] : model.nodes()) keep_nodes.insert(name);
    for (std::size_t li = 0; li < model.links().size(); ++li)
      if (model.links()[li].up())
        kept.push_back(static_cast<std::uint32_t>(li));
  } else {
    const RoutingIndex& index = model.routing_index();
    for (const std::string& a : queried) {
      keep_nodes.insert(a);
      const std::int32_t ia = index.id_of(a);
      const RoutingIndex::Row& row = index.row_from(ia);
      for (const std::string& b : queried) {
        if (a == b) continue;
        const std::int32_t ib = index.id_of(b);
        if (row.prev_node[static_cast<std::size_t>(ib)] ==
            RoutingIndex::kNoNode)
          continue;  // unreachable pair
        // Walk b back to a; every edge on the way is relevant.
        for (std::int32_t cur = ib; cur != ia;) {
          const auto c = static_cast<std::size_t>(cur);
          keep_nodes.insert(index.name_of(cur));
          kept.push_back(static_cast<std::uint32_t>(row.prev_link[c]));
          cur = row.prev_node[c];
        }
      }
    }
    // Model link order, so the graph matches a scan of model.links().
    std::sort(kept.begin(), kept.end());
    kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  }

  // Annotated working copies of the kept links (mutable for collapsing).
  struct WorkLink {
    std::string a, b;
    Measurement capacity, latency, used_ab, used_ba;
    std::vector<std::string> abstracts;
    SharingPolicy sharing = SharingPolicy::kUnknown;
  };
  std::vector<WorkLink> work;
  work.reserve(kept.size());
  for (const std::uint32_t li : kept) {
    const ModelLink& l = model.links()[li];
    WorkLink w;
    w.a = l.a;
    w.b = l.b;
    w.capacity = exactish(l.capacity);
    w.latency = exactish(l.latency);
    w.used_ab = used_for_timeframe(l.history, timeframe, now, true, predictor);
    w.used_ba =
        used_for_timeframe(l.history, timeframe, now, false, predictor);
    if (options.accuracy_halflife > 0) {
      // Staleness decay: confidence halves every accuracy_halflife
      // seconds since a collector last confirmed this link.
      Seconds fresh = l.last_update;
      if (!l.history.empty())
        fresh = std::max(fresh, l.history.latest().at);
      if (fresh >= 0) {
        const Seconds age = std::max(0.0, now - fresh);
        const double factor =
            std::exp2(-age / options.accuracy_halflife);
        w.used_ab.accuracy *= factor;
        w.used_ba.accuracy *= factor;
      }
    }
    w.sharing = l.sharing;
    work.push_back(std::move(w));
  }

  // 2. Chain collapsing.
  if (options.collapse_chains) {
    bool changed = true;
    while (changed) {
      changed = false;
      // Degree count over the working link set.
      std::map<std::string, std::vector<std::size_t>> incident;
      for (std::size_t i = 0; i < work.size(); ++i) {
        incident[work[i].a].push_back(i);
        incident[work[i].b].push_back(i);
      }
      for (const auto& [name, links] : incident) {
        if (queried.contains(name)) continue;
        if (!model.node(name).is_router()) continue;
        if (model.node(name).internal_bw > 0) continue;  // constraint: keep
        if (links.size() != 2) continue;
        WorkLink& l1 = work[links[0]];
        WorkLink& l2 = work[links[1]];
        const std::string x = l1.a == name ? l1.b : l1.a;
        const std::string y = l2.a == name ? l2.b : l2.a;
        if (x == y) continue;  // parallel chain; leave alone
        // Direction bookkeeping: usage seen traveling x -> name -> y.
        auto used_towards = [&](const WorkLink& l, const std::string& to) {
          return l.b == to ? l.used_ab : l.used_ba;
        };
        auto avail = [](const Measurement& cap, const Measurement& used) {
          GraphLink tmp;
          tmp.capacity = cap;
          tmp.used_ab = used;
          return tmp.available_ab();
        };
        WorkLink merged;
        merged.a = x;
        merged.b = y;
        const double cap = std::min(l1.capacity.mean, l2.capacity.mean);
        merged.capacity = exactish(cap);
        merged.latency = exactish(l1.latency.mean + l2.latency.mean);
        // Logical usage: whatever leaves the *least* availability along
        // the chain, per direction, element-wise on quartiles.
        auto merge_used = [&](const std::string& from, const std::string& to) {
          const Measurement a1 = avail(l1.capacity,
                                       used_towards(l1, from == x ? name : x));
          const Measurement a2 = avail(l2.capacity,
                                       used_towards(l2, from == x ? y : name));
          (void)to;
          if (!l1.used_ab.known() && !l2.used_ab.known() &&
              !l1.used_ba.known() && !l2.used_ba.known())
            return Measurement{};
          Measurement out;
          auto lo = [](double p, double q) { return std::min(p, q); };
          // available = min(a1, a2); used = cap - available (per quartile).
          out.quartiles.min = cap - lo(a1.quartiles.max, a2.quartiles.max);
          out.quartiles.q1 = cap - lo(a1.quartiles.q3, a2.quartiles.q3);
          out.quartiles.median =
              cap - lo(a1.quartiles.median, a2.quartiles.median);
          out.quartiles.q3 = cap - lo(a1.quartiles.q1, a2.quartiles.q1);
          out.quartiles.max = cap - lo(a1.quartiles.min, a2.quartiles.min);
          out.mean = cap - lo(a1.mean, a2.mean);
          out.samples = std::min(a1.samples, a2.samples);
          out.accuracy = std::min(a1.accuracy, a2.accuracy);
          for (double* q : {&out.quartiles.min, &out.quartiles.q1,
                            &out.quartiles.median, &out.quartiles.q3,
                            &out.quartiles.max, &out.mean})
            *q = std::max(0.0, *q);
          return out;
        };
        merged.used_ab = merge_used(x, y);
        merged.used_ba = merge_used(y, x);
        // A chain of uniform policy keeps it; a mixed chain is opaque.
        merged.sharing = l1.sharing == l2.sharing ? l1.sharing
                                                  : SharingPolicy::kUnknown;
        merged.abstracts = l1.abstracts;
        merged.abstracts.push_back(name);
        merged.abstracts.insert(merged.abstracts.end(), l2.abstracts.begin(),
                                l2.abstracts.end());
        std::sort(merged.abstracts.begin(), merged.abstracts.end());

        // A parallel link x--y may already exist; if so, keep both as
        // physical (no multigraph support) and skip this node.
        bool parallel = false;
        for (std::size_t i = 0; i < work.size(); ++i) {
          if (i == links[0] || i == links[1]) continue;
          if ((work[i].a == x && work[i].b == y) ||
              (work[i].a == y && work[i].b == x))
            parallel = true;
        }
        if (parallel) continue;

        const std::size_t i1 = std::max(links[0], links[1]);
        const std::size_t i2 = std::min(links[0], links[1]);
        work.erase(work.begin() + static_cast<long>(i1));
        work.erase(work.begin() + static_cast<long>(i2));
        work.push_back(std::move(merged));
        keep_nodes.erase(name);
        changed = true;
        break;  // restart: indices invalidated
      }
    }
  }

  // 3. Assemble the value graph.
  NetworkGraph graph;
  std::set<std::string> still_used;
  for (const WorkLink& w : work) {
    still_used.insert(w.a);
    still_used.insert(w.b);
  }
  for (const std::string& name : keep_nodes) {
    if (!still_used.contains(name) && !queried.contains(name))
      continue;  // dangling interior node after collapsing
    const ModelNode& mn = model.node(name);
    GraphNode gn;
    gn.name = name;
    gn.is_compute = !mn.is_router();
    if (mn.internal_bw > 0) gn.internal_bw = exactish(mn.internal_bw);
    gn.has_host_info = mn.has_host_info;
    gn.cpu_load = mn.cpu_load;
    gn.memory_mb = mn.memory_mb;
    graph.add_node(std::move(gn));
  }
  for (WorkLink& w : work) {
    GraphLink gl;
    gl.a = std::move(w.a);
    gl.b = std::move(w.b);
    gl.capacity = w.capacity;
    gl.latency = w.latency;
    gl.used_ab = w.used_ab;
    gl.used_ba = w.used_ba;
    gl.abstracts = std::move(w.abstracts);
    gl.sharing = w.sharing;
    graph.add_link(std::move(gl));
  }
  return graph;
}

/// The path a flow src -> dst took before the link table: the model's
/// route, keeping the nodes `graph` has, each consecutive pair joined by
/// their one logical link.  nullopt if unreachable or off the graph.
std::optional<GraphPath> reference_route(const RoutingIndex& index,
                                         const NetworkGraph& graph,
                                         const std::string& src,
                                         const std::string& dst) {
  const std::int32_t s = index.id_of(src);
  const RoutingIndex::Row& row = index.row_from(s);
  std::vector<std::string> route;  // dst back to src
  for (std::int32_t cur = index.id_of(dst); cur != s;
       cur = row.prev_node[static_cast<std::size_t>(cur)]) {
    if (cur == RoutingIndex::kNoNode) return std::nullopt;
    route.push_back(index.name_of(cur));
  }
  route.push_back(src);
  std::reverse(route.begin(), route.end());
  GraphPath path;
  for (const std::string& name : route) {
    if (!graph.has_node(name)) continue;  // hidden in a logical link
    if (!path.nodes.empty()) {
      const GraphLink* l = graph.find_link(path.nodes.back(), name);
      if (!l) return std::nullopt;
      path.link_indices.push_back(
          static_cast<std::size_t>(l - graph.links().data()));
    }
    path.nodes.push_back(name);
  }
  if (path.nodes.front() != src || path.nodes.back() != dst)
    return std::nullopt;
  return path;
}

// --- comparison ---------------------------------------------------------

bool same(double p, double q) {
  return std::bit_cast<std::uint64_t>(p) == std::bit_cast<std::uint64_t>(q);
}

bool same(const Measurement& p, const Measurement& q) {
  return same(p.quartiles.min, q.quartiles.min) &&
         same(p.quartiles.q1, q.quartiles.q1) &&
         same(p.quartiles.median, q.quartiles.median) &&
         same(p.quartiles.q3, q.quartiles.q3) &&
         same(p.quartiles.max, q.quartiles.max) && same(p.mean, q.mean) &&
         p.samples == q.samples && same(p.accuracy, q.accuracy);
}

/// "" if the graphs agree in every field; otherwise the first difference.
std::string graph_mismatch(const NetworkGraph& want, const NetworkGraph& got) {
  if (want.node_count() != got.node_count())
    return "node count " + std::to_string(got.node_count()) + " != " +
           std::to_string(want.node_count());
  for (auto w = want.nodes().begin(), g = got.nodes().begin();
       w != want.nodes().end(); ++w, ++g) {
    const GraphNode& p = w->second;
    const GraphNode& q = g->second;
    if (w->first != g->first || p.name != q.name)
      return "node " + q.name + " != " + p.name;
    if (p.is_compute != q.is_compute || !same(p.internal_bw, q.internal_bw) ||
        p.has_host_info != q.has_host_info || !same(p.cpu_load, q.cpu_load) ||
        p.memory_mb != q.memory_mb)
      return "node " + p.name + " fields";
  }
  if (want.link_count() != got.link_count())
    return "link count " + std::to_string(got.link_count()) + " != " +
           std::to_string(want.link_count());
  for (std::size_t i = 0; i < want.link_count(); ++i) {
    const GraphLink& p = want.links()[i];
    const GraphLink& q = got.links()[i];
    const std::string at = "link " + std::to_string(i) + " ";
    if (p.a != q.a || p.b != q.b)
      return at + q.a + "--" + q.b + " != " + p.a + "--" + p.b;
    if (!same(p.capacity, q.capacity) || !same(p.latency, q.latency))
      return at + p.a + "--" + p.b + " capacity/latency";
    if (!same(p.used_ab, q.used_ab) || !same(p.used_ba, q.used_ba))
      return at + p.a + "--" + p.b + " usage";
    if (p.abstracts != q.abstracts || p.sharing != q.sharing)
      return at + p.a + "--" + p.b + " abstracts/sharing";
  }
  return "";
}

/// "" if `graph` is `topo` named: its nodes in topo.nodes order, its
/// links in link-table order with the same ends and fields, each link's
/// abstracts the routers topo.hidden puts in it; otherwise the first
/// difference.
std::string table_order_mismatch(const RoutingIndex& index,
                                 const LogicalTopology& topo,
                                 const NetworkGraph& graph) {
  if (graph.node_count() != topo.nodes.size()) return "table node count";
  auto node = graph.nodes().begin();
  for (const LogicalTopology::Node& n : topo.nodes) {
    if (node->first != index.name_of(n.id) ||
        !same(node->second.internal_bw,
              n.internal_bw > 0 ? exactish(n.internal_bw) : Measurement{}))
      return "table node " + index.name_of(n.id);
    ++node;
  }
  if (graph.link_count() != topo.links.size()) return "table link count";
  std::vector<std::vector<std::string>> hidden(topo.links.size());
  for (const LogicalTopology::Hidden& h : topo.hidden)
    hidden[h.link].push_back(index.name_of(h.router));
  for (std::size_t i = 0; i < topo.links.size(); ++i) {
    const LogicalTopology::Link& t = topo.links[i];
    const GraphLink& g = graph.links()[i];
    if (g.a != index.name_of(t.a) || g.b != index.name_of(t.b) ||
        !same(g.capacity, exactish(t.capacity)) ||
        !same(g.latency, exactish(t.latency)) || !same(g.used_ab, t.used_ab) ||
        !same(g.used_ba, t.used_ba) || g.sharing != t.sharing ||
        g.abstracts != hidden[i])
      return "table link " + std::to_string(i);
  }
  return "";
}

/// "" if the link table routes every ordered pair of `group` as the
/// reference projection does; otherwise the first difference.  `graph`
/// is `topo` named (table_order_mismatch).
std::string route_mismatch(const NetworkModel& model,
                           const LogicalTopology& topo,
                           const NetworkGraph& graph,
                           const std::vector<std::string>& group) {
  const RoutingIndex& index = model.routing_index();
  std::vector<LogicalTopology::Hop> hops;
  for (const std::string& a : group) {
    for (const std::string& b : group) {
      if (a == b) continue;
      const auto want = reference_route(index, graph, a, b);
      const bool routed =
          topo.route(index, index.id_of(a), index.id_of(b), hops);
      const std::string pair = a + "->" + b + ": ";
      if (routed != want.has_value()) return pair + "routability";
      if (!routed) continue;
      if (hops.size() != want->link_indices.size()) return pair + "hop count";
      for (std::size_t k = 0; k < hops.size(); ++k) {
        const GraphLink& l = graph.links()[hops[k].link];
        if (hops[k].link != want->link_indices[k] ||
            hops[k].forward != (want->nodes[k] == l.a) ||
            l.a != (hops[k].forward ? want->nodes[k] : want->nodes[k + 1]))
          return pair + "hop " + std::to_string(k);
      }
    }
  }
  return "";
}

/// Builds `group` both ways and reports the first difference ("" if
/// none), counting the graph in `graphs`.
std::string build_mismatch(const NetworkModel& model,
                           const std::vector<std::string>& group,
                           const Timeframe& timeframe, Seconds now,
                           const LogicalOptions& options,
                           std::size_t& graphs) {
  const EwmaPredictor predictor(0.3);
  const NetworkGraph want =
      reference_build(model, group, timeframe, now, predictor, options);
  std::vector<std::int32_t> ids;
  for (const std::string& n : group)
    ids.push_back(model.routing_index().id_of(n));
  std::sort(ids.begin(), ids.end());
  const LogicalTopology got =
      build_logical_topology(model, ids, timeframe, now, predictor, options);
  const NetworkGraph named =
      build_logical_graph(model, group, timeframe, now, predictor, options);
  ++graphs;
  if (std::string why = graph_mismatch(want, named); !why.empty())
    return why;
  if (std::string why =
          table_order_mismatch(model.routing_index(), got, named);
      !why.empty())
    return why;
  if (options.keep_all) return "";  // pair routes need the pruned build
  return route_mismatch(model, got, named, group);
}

// --- inputs -------------------------------------------------------------

/// A topology as discovery leaves it.  Idle: one quiet sample per link.
/// Loaded: seeded usage histories, mixed sharing policies, stale and
/// never-sampled links, a few down links, routers with an internal
/// bandwidth and hosts with host info.
NetworkModel model_of(const netsim::Topology& topo, bool loaded,
                      std::uint64_t seed) {
  Rng rng(seed);
  NetworkModel model;
  for (const netsim::Node& n : topo.nodes()) {
    const bool router = n.kind == netsim::NodeKind::kNetwork;
    ModelNode& mn = model.upsert_node(n.name, router);
    mn.internal_bw = n.internal_bw;
    if (!loaded) continue;
    if (router && rng.below(8) == 0)
      mn.internal_bw = mbps(static_cast<double>(50 + rng.below(500)));
    if (!router && rng.below(2) == 0) {
      mn.has_host_info = true;
      mn.cpu_load = rng.uniform();
      mn.memory_mb = static_cast<std::uint32_t>(64 + rng.below(1024));
    }
  }
  for (const netsim::Link& l : topo.links()) {
    ModelLink& ml = model.upsert_link(topo.name_of(l.a), topo.name_of(l.b),
                                      l.capacity, l.latency);
    if (!loaded) {
      ml.last_update = 1.0;
      ml.history.record(collector::Sample{1.0, 0.0, 0.0});
      continue;
    }
    ml.sharing = static_cast<SharingPolicy>(rng.below(3));
    ml.last_update =
        rng.below(4) == 0 ? -1.0 : static_cast<double>(1 + rng.below(60));
    if (rng.below(50) == 0) model.set_link_up(ml, false);
    if (rng.below(10) == 0) continue;  // never sampled
    for (int t = 0; t < 8; ++t)
      ml.history.record(collector::Sample{1.0 + 8.0 * t,
                                          rng.uniform(0, 0.9) * l.capacity,
                                          rng.uniform(0, 0.9) * l.capacity});
  }
  return model;
}

/// `k` distinct host names drawn with `rng` (all of them if fewer).
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
  int reps;  // endpoint groups per (load, timeframe, size)
};

void PrintTo(const Family& family, std::ostream* os) { *os << family.name; }

std::string family_name(const ::testing::TestParamInfo<Family>& info) {
  return info.param.name;
}

netsim::Topology fat_tree(std::size_t k) {
  netsim::FatTreeParams p;
  p.k = k;
  return netsim::make_fat_tree(p);
}

netsim::Topology dumbbell(std::size_t trunk_hops) {
  netsim::DumbbellParams p;
  p.trunk_hops = trunk_hops;
  return netsim::make_dumbbell(p);
}

netsim::Topology waxman(std::size_t hosts, std::size_t routers,
                        std::uint64_t seed) {
  netsim::WaxmanParams p;
  p.hosts = hosts;
  p.routers = routers;
  p.seed = seed;
  return netsim::make_waxman(p);
}

class LogicalDifferential : public ::testing::TestWithParam<Family> {};

TEST_P(LogicalDifferential, OnePassBuildMatchesTheRestartLoop) {
  const netsim::Topology topo = GetParam().make();
  const bool small = topo.compute_nodes().size() <= 256;
  std::size_t graphs = 0, mismatches = 0;
  std::string first;
  const auto check = [&](const NetworkModel& model,
                         const std::vector<std::string>& group,
                         const Timeframe& tf, Seconds now,
                         const LogicalOptions& options,
                         const std::string& what) {
    const std::string why =
        build_mismatch(model, group, tf, now, options, graphs);
    if (why.empty()) return;
    ++mismatches;
    if (first.empty()) first = what + ": " + why;
  };
  for (const bool loaded : {false, true}) {
    const NetworkModel model =
        model_of(topo, loaded, 0xd1ffu + topo.node_count());
    const Seconds now = loaded ? 70.0 : 1.0;
    Rng rng(0x10c0000u + topo.node_count() + (loaded ? 1u : 0u));
    const Timeframe timeframes[] = {Timeframe::current(), Timeframe::statics(),
                                    Timeframe::history(30.0)};
    for (const Timeframe& tf : timeframes) {
      for (const std::size_t size : {2u, 6u, 16u, 32u}) {
        for (int rep = 0; rep < GetParam().reps; ++rep) {
          const std::vector<std::string> group = pick_hosts(topo, size, rng);
          const std::string what = (loaded ? "loaded " : "idle ") +
                                   std::to_string(group.size()) + " hosts";
          check(model, group, tf, now, LogicalOptions{}, what);
        }
      }
    }
    // The options the default query path does not take.
    const std::vector<std::string> group = pick_hosts(topo, 6, rng);
    LogicalOptions no_decay;
    no_decay.accuracy_halflife = 0;
    check(model, group, Timeframe::current(), now, no_decay, "no decay");
    LogicalOptions no_collapse;
    no_collapse.collapse_chains = false;
    check(model, group, Timeframe::history(30.0), now, no_collapse,
          "no collapse");
    if (small) {
      LogicalOptions keep_all;
      keep_all.keep_all = true;
      check(model, group, Timeframe::current(), now, keep_all, "keep_all");
      keep_all.collapse_chains = false;
      check(model, group, Timeframe::statics(), now, keep_all,
            "keep_all, no collapse");
    }
  }
  EXPECT_EQ(mismatches, 0u) << mismatches << " of " << graphs
                            << " graphs differ; first " << first;
}

INSTANTIATE_TEST_SUITE_P(
    Families, LogicalDifferential,
    ::testing::Values(
        Family{"Cmu", [] { return netsim::make_cmu_testbed(); }, 4},
        Family{"Figure1", [] { return netsim::make_figure1(mbps(100)); }, 4},
        Family{"FatTree4", [] { return fat_tree(4); }, 4},
        Family{"FatTree8", [] { return fat_tree(8); }, 3},
        Family{"FatTree16", [] { return fat_tree(16); }, 1},
        Family{"Dumbbell1", [] { return dumbbell(1); }, 3},
        Family{"Dumbbell3", [] { return dumbbell(3); }, 3},
        Family{"Waxman64Seed1", [] { return waxman(64, 16, 1); }, 3},
        Family{"Waxman64Seed2", [] { return waxman(64, 16, 2); }, 3},
        Family{"Waxman64Seed3", [] { return waxman(64, 16, 3); }, 3},
        Family{"Waxman64Seed4", [] { return waxman(64, 16, 4); }, 3},
        Family{"Waxman64Seed5", [] { return waxman(64, 16, 5); }, 3},
        Family{"Waxman256", [] { return waxman(256, 64, 11); }, 2},
        Family{"Waxman1024", [] { return waxman(1024, 256, 7); }, 1}),
    family_name);

// --- pinned shapes where merge order decides the answer ------------------

/// Hosts h1 on router j1 and h2 on router j2, plus `links` among routers
/// named in `routers`; every link 100 Mbps, 1 ms.
NetworkModel shape(const std::vector<std::string>& routers,
                   const std::vector<std::pair<std::string, std::string>>&
                       links) {
  NetworkModel m;
  m.upsert_node("h1", false);
  m.upsert_node("h2", false);
  for (const std::string& r : routers) m.upsert_node(r, true);
  m.upsert_link("h1", "j1", mbps(100), millis(1));
  m.upsert_link("h2", "j2", mbps(100), millis(1));
  for (const auto& [a, b] : links) m.upsert_link(a, b, mbps(100), millis(1));
  return m;
}

/// keep_all over `m` both ways; the new build's graph.
NetworkGraph keep_all_matches(const NetworkModel& m) {
  LogicalOptions keep_all;
  keep_all.keep_all = true;
  std::size_t graphs = 0;
  EXPECT_EQ(build_mismatch(m, {"h1", "h2"}, Timeframe::statics(), 1.0,
                           keep_all, graphs),
            "");
  return build_logical_graph(m, {"h1", "h2"}, Timeframe::statics(), 1.0,
                             EwmaPredictor(0.3), keep_all);
}

TEST(LogicalDifferentialShapes, ChainBesideADirectLinkKeepsItsLastRouter) {
  // j1 -- r1 -- r2 -- j2 beside j1 -- j2.  r1 collapses into j1 -- r2;
  // r2 would then make a second j1 -- j2, so the largest-name router of
  // the chain survives.
  const NetworkGraph g = keep_all_matches(
      shape({"j1", "j2", "r1", "r2"},
            {{"j1", "j2"}, {"j1", "r1"}, {"r1", "r2"}, {"r2", "j2"}}));
  EXPECT_FALSE(g.has_node("r1"));
  EXPECT_TRUE(g.has_node("r2"));
  const GraphLink* merged = g.find_link("j1", "r2");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->abstracts, (std::vector<std::string>{"r1"}));
}

TEST(LogicalDifferentialShapes, SecondChainBetweenTheSameJunctionsStays) {
  // j1 -- a -- j2 and j1 -- b -- j2: a collapses first; b would make a
  // parallel logical link, so it stays a router.
  const NetworkGraph g = keep_all_matches(shape(
      {"a", "b", "j1", "j2"}, {{"j1", "a"}, {"a", "j2"}, {"j1", "b"},
                               {"b", "j2"}}));
  EXPECT_FALSE(g.has_node("a"));
  EXPECT_TRUE(g.has_node("b"));
  const GraphLink* merged = g.find_link("j1", "j2");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->abstracts, (std::vector<std::string>{"a"}));
}

TEST(LogicalDifferentialShapes, TriangleOfDegreeTwoRoutersStays) {
  // An unattached triangle p, q, r: collapsing any corner would link the
  // other two twice, so none collapses (j1 and j2 do: h1 -- h2 is left).
  const NetworkGraph g = keep_all_matches(
      shape({"j1", "j2", "p", "q", "r"},
            {{"j1", "j2"}, {"p", "q"}, {"q", "r"}, {"p", "r"}}));
  for (const char* n : {"p", "q", "r"}) EXPECT_TRUE(g.has_node(n)) << n;
  EXPECT_EQ(g.link_count(), 4u);
  EXPECT_NE(g.find_link("p", "q"), nullptr);
  EXPECT_NE(g.find_link("q", "r"), nullptr);
  EXPECT_NE(g.find_link("p", "r"), nullptr);
}

TEST(LogicalDifferentialShapes, RouteRefusesWhatTheBuildDidNotKeep) {
  // h1 -- j1 -- j2 -- h2 collapses to one link; h3 hangs off j2 and h4
  // is isolated.  Queried: h1, h2, h4.
  NetworkModel m = shape({"j1", "j2"}, {{"j1", "j2"}});
  m.upsert_node("h3", false);
  m.upsert_node("h4", false);
  m.upsert_link("j2", "h3", mbps(100), millis(1));
  const RoutingIndex& index = m.routing_index();
  std::vector<std::int32_t> ids{index.id_of("h1"), index.id_of("h2"),
                                index.id_of("h4")};
  std::sort(ids.begin(), ids.end());
  const LogicalTopology topo =
      build_logical_topology(m, ids, Timeframe::statics(), 1.0,
                             EwmaPredictor(0.3), LogicalOptions{});
  std::vector<LogicalTopology::Hop> hops;
  ASSERT_TRUE(topo.route(index, index.id_of("h2"), index.id_of("h1"), hops));
  ASSERT_EQ(hops.size(), 1u);  // three model links, one logical hop
  ASSERT_EQ(topo.hidden.size(), 2u);
  for (const LogicalTopology::Hidden& h : topo.hidden)
    EXPECT_EQ(h.link, hops[0].link);
  EXPECT_EQ(index.name_of(topo.hidden[0].router), "j1");
  EXPECT_EQ(index.name_of(topo.hidden[1].router), "j2");
  EXPECT_EQ(topo.far_end(hops[0]), index.id_of("h1"));
  // Off the kept links, unreachable, or unknown: no route.
  EXPECT_FALSE(topo.route(index, index.id_of("h1"), index.id_of("h3"), hops));
  EXPECT_FALSE(topo.route(index, index.id_of("h1"), index.id_of("h4"), hops));
  EXPECT_FALSE(topo.route(index, RoutingIndex::kNoNode, index.id_of("h1"),
                          hops));
}

}  // namespace
}  // namespace remos::core
