// Differential oracle for the flow path.
//
// The reference below is the flow solver as it was when it read the
// named logical graph: it takes every link's capacity, latency and usage
// from build_logical_graph's GraphLinks (looked up through the link
// table, whose order the graph keeps) and runs the staged max-min sweep
// once per background scenario, five times, whether or not two scenarios
// start from the same residuals.  It is kept verbatim, as the repo keeps
// max_min_allocate beside the incremental solver.  Modeler::flow_info
// and flow_info_batch (both modes) run on the id-only topology and sweep
// once per distinct scenario; their answers must equal the reference's
// bit for bit, across the generator families, idle and loaded models,
// every timeframe, every flow class, and queries whose five scenarios
// all, some or none coincide.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "collector/network_model.hpp"
#include "core/logical.hpp"
#include "core/modeler.hpp"
#include "netsim/generators.hpp"
#include "netsim/maxmin.hpp"
#include "netsim/testbeds.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace remos::core {
namespace {

using collector::ModelLink;
using collector::ModelNode;
using collector::NetworkModel;
using collector::RoutingIndex;

// --- the reference: the graph-based five-sweep solver, verbatim ----------

/// A routed query flow ready for allocation.
struct RoutedFlow {
  const FlowRequest* request;
  std::vector<std::size_t> resources;  // directed link / node resources
  Seconds latency = 0;
  std::size_t min_samples = std::numeric_limits<std::size_t>::max();
  double min_accuracy = 1.0;
  bool routable = false;
};

/// Background-usage scenario index 0..4 maps to the used-bandwidth
/// quartile {min,q1,median,q3,max}; low usage = optimistic scenario.
double used_at(const Measurement& used, std::size_t scenario) {
  if (!used.known()) return 0.0;
  switch (scenario) {
    case 0: return used.quartiles.min;
    case 1: return used.quartiles.q1;
    case 2: return used.quartiles.median;
    case 3: return used.quartiles.q3;
    default: return used.quartiles.max;
  }
}

/// A flow query's endpoints as RoutingIndex ids, each name resolved
/// once: kNoNode where the model does not know it.
struct FlowEndpoints {
  std::vector<std::array<std::int32_t, 2>> flows;  // fixed, variable,
                                                   // independent
  std::vector<std::vector<std::int32_t>> multicast;  // src, then dsts
  std::vector<std::int32_t> known;  // ascending, no repeats
};

/// Validates the flow structure (the InvalidArgument throws here are
/// flow_info's documented contract) and resolves every endpoint.
FlowEndpoints resolve_endpoints(const FlowQuery& query,
                                const collector::RoutingIndex& index) {
  std::vector<const FlowRequest*> all;
  for (const FlowRequest& f : query.fixed) all.push_back(&f);
  for (const FlowRequest& f : query.variable) all.push_back(&f);
  if (query.independent) all.push_back(&*query.independent);
  if (all.empty() && query.multicast.empty())
    throw InvalidArgument("flow_info: no flows in query");

  FlowEndpoints out;
  for (const FlowRequest* f : all) {
    if (f->src == f->dst)
      throw InvalidArgument("flow_info: src == dst for " + f->src);
    out.flows.push_back({index.id_of(f->src), index.id_of(f->dst)});
  }
  for (const MulticastRequest& m : query.multicast) {
    if (m.dsts.empty())
      throw InvalidArgument("flow_info: multicast without receivers");
    std::vector<std::int32_t>& ids = out.multicast.emplace_back();
    ids.push_back(index.id_of(m.src));
    for (const std::string& d : m.dsts) {
      if (d == m.src)
        throw InvalidArgument("flow_info: multicast src == dst for " +
                              m.src);
      ids.push_back(index.id_of(d));
    }
  }
  for (const auto& ends : out.flows)
    out.known.insert(out.known.end(), ends.begin(), ends.end());
  for (const std::vector<std::int32_t>& ids : out.multicast)
    out.known.insert(out.known.end(), ids.begin(), ids.end());
  std::erase(out.known, collector::RoutingIndex::kNoNode);
  std::sort(out.known.begin(), out.known.end());
  out.known.erase(std::unique(out.known.begin(), out.known.end()),
                  out.known.end());
  return out;
}

/// Routes and solves `query` against a pre-built logical topology --
/// everything flow_info does after the graph build.  Each flow takes its
/// route from the model's routing index, through the topology's link
/// table; `topo` must have been built from the model `routing` indexes,
/// and `graph` is `topo` named (links in link-table order).  Counts the
/// scenarios whose starting residuals differ from the previous one's in
/// `distinct`.
FlowQueryResult solve_on_graph(const FlowQuery& query,
                               const FlowEndpoints& ends,
                               const collector::RoutingIndex& routing,
                               const LogicalTopology& topo,
                               const NetworkGraph& graph,
                               std::size_t& distinct) {
  std::vector<const FlowRequest*> all;
  for (const FlowRequest& f : query.fixed) all.push_back(&f);
  for (const FlowRequest& f : query.variable) all.push_back(&f);
  if (query.independent) all.push_back(&*query.independent);

  // Resource table over the logical graph: two directed resources per
  // link, then one per node with a known internal bandwidth.
  const std::size_t nl = graph.links().size();
  std::vector<const Measurement*> dir_used(2 * nl);
  std::vector<double> dir_capacity(2 * nl);
  for (std::size_t i = 0; i < nl; ++i) {
    const GraphLink& l = graph.links()[i];
    dir_capacity[2 * i] = l.capacity.mean;
    dir_capacity[2 * i + 1] = l.capacity.mean;
    dir_used[2 * i] = &l.used_ab;
    dir_used[2 * i + 1] = &l.used_ba;
  }
  std::vector<std::int32_t> constrained_nodes;  // ids, ascending
  std::vector<double> node_capacity;
  auto node = topo.nodes.begin();
  for (const auto& [name, n] : graph.nodes()) {
    if (n.internal_bw.known()) {
      constrained_nodes.push_back(node->id);
      node_capacity.push_back(n.internal_bw.mean);
    }
    ++node;
  }

  // Route every flow once, on the model: its route there (the route the
  // simulator forwards it on) through the topology's link table.
  const auto node_resource =
      [&](std::int32_t id) -> std::optional<std::size_t> {
    const auto it = std::lower_bound(constrained_nodes.begin(),
                                     constrained_nodes.end(), id);
    if (it == constrained_nodes.end() || *it != id) return std::nullopt;
    return 2 * nl + static_cast<std::size_t>(it - constrained_nodes.begin());
  };
  std::vector<LogicalTopology::Hop> hops;
  std::vector<RoutedFlow> routed(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    RoutedFlow& rf = routed[i];
    rf.request = all[i];
    const auto [src, dst] = ends.flows[i];
    if (!topo.route(routing, src, dst, hops))
      continue;  // unknown endpoint or no route: unroutable
    rf.routable = true;
    for (const LogicalTopology::Hop& hop : hops) {
      const GraphLink& l = graph.links()[hop.link];
      rf.resources.push_back(2 * std::size_t{hop.link} + (hop.forward ? 0 : 1));
      rf.latency += l.latency.quartiles.median;
      const Measurement& used = hop.forward ? l.used_ab : l.used_ba;
      if (used.known()) {
        rf.min_samples = std::min(rf.min_samples, used.samples);
        rf.min_accuracy = std::min(rf.min_accuracy, used.accuracy);
      }
      rf.min_accuracy = std::min(rf.min_accuracy, l.capacity.accuracy);
    }
    if (const auto r = node_resource(src)) rf.resources.push_back(*r);
    for (const LogicalTopology::Hop& hop : hops)
      if (const auto r = node_resource(topo.far_end(hop)))
        rf.resources.push_back(*r);
  }

  // Route the multicast trees: the resource set is the union over the
  // per-receiver paths (each tree link charged once), latency is the
  // farthest receiver's.
  struct RoutedMulticast {
    std::vector<std::size_t> resources;
    Seconds latency = 0;
    double min_accuracy = 1.0;
    bool routable = true;
  };
  std::vector<RoutedMulticast> routed_mc(query.multicast.size());
  for (std::size_t i = 0; i < query.multicast.size(); ++i) {
    RoutedMulticast& rm = routed_mc[i];
    std::set<std::size_t> union_resources;
    const std::int32_t src = ends.multicast[i].front();
    for (std::size_t d = 1; d < ends.multicast[i].size(); ++d) {
      if (!topo.route(routing, src, ends.multicast[i][d], hops)) {
        rm.routable = false;
        break;
      }
      Seconds leaf_latency = 0;
      for (const LogicalTopology::Hop& hop : hops) {
        const GraphLink& l = graph.links()[hop.link];
        union_resources.insert(2 * std::size_t{hop.link} +
                               (hop.forward ? 0 : 1));
        leaf_latency += l.latency.quartiles.median;
        const Measurement& used = hop.forward ? l.used_ab : l.used_ba;
        if (used.known())
          rm.min_accuracy = std::min(rm.min_accuracy, used.accuracy);
      }
      rm.latency = std::max(rm.latency, leaf_latency);
      if (const auto r = node_resource(src)) union_resources.insert(*r);
      for (const LogicalTopology::Hop& hop : hops)
        if (const auto r = node_resource(topo.far_end(hop)))
          union_resources.insert(*r);
    }
    rm.resources.assign(union_resources.begin(), union_resources.end());
  }

  // Evaluate the staged allocation under each background scenario.
  constexpr std::size_t kScenarios = 5;
  std::vector<std::array<double, kScenarios>> grants(
      all.size(), std::array<double, kScenarios>{});
  std::vector<bool> satisfied_median(all.size(), false);
  std::vector<std::array<double, kScenarios>> mc_grants(
      query.multicast.size(), std::array<double, kScenarios>{});
  std::vector<bool> mc_satisfied(query.multicast.size(), false);

  std::vector<double> previous;
  distinct = 0;
  for (std::size_t s = 0; s < kScenarios; ++s) {
    std::vector<double> residual(2 * nl + constrained_nodes.size());
    for (std::size_t r = 0; r < 2 * nl; ++r)
      residual[r] =
          std::max(0.0, dir_capacity[r] - used_at(*dir_used[r], s));
    for (std::size_t k = 0; k < constrained_nodes.size(); ++k)
      residual[2 * nl + k] = node_capacity[k];
    if (s == 0 || !std::ranges::equal(residual, previous, [](double p,
                                                              double q) {
          return std::bit_cast<std::uint64_t>(p) ==
                 std::bit_cast<std::uint64_t>(q);
        }))
      ++distinct;
    previous = residual;

    // Stage 1: fixed flows, in query order (first come, first admitted).
    for (std::size_t i = 0; i < query.fixed.size(); ++i) {
      RoutedFlow& rf = routed[i];
      if (!rf.routable) continue;
      double bottleneck = std::numeric_limits<double>::infinity();
      for (std::size_t r : rf.resources)
        bottleneck = std::min(bottleneck, residual[r]);
      const double grant = std::min(rf.request->requested, bottleneck);
      grants[i][s] = grant;
      for (std::size_t r : rf.resources) residual[r] -= grant;
      if (s == 2)
        satisfied_median[i] = grant >= rf.request->requested * (1 - 1e-9);
    }

    // Stage 1b: multicast trees, admitted after the unicast fixed class.
    for (std::size_t i = 0; i < query.multicast.size(); ++i) {
      RoutedMulticast& rm = routed_mc[i];
      if (!rm.routable) continue;
      double bottleneck = std::numeric_limits<double>::infinity();
      for (std::size_t r : rm.resources)
        bottleneck = std::min(bottleneck, residual[r]);
      const double grant =
          std::min(query.multicast[i].requested, bottleneck);
      mc_grants[i][s] = grant;
      for (std::size_t r : rm.resources) residual[r] -= grant;
      if (s == 2)
        mc_satisfied[i] =
            grant >= query.multicast[i].requested * (1 - 1e-9);
    }

    // Stage 2: variable flows, weighted max-min on the residual.
    if (!query.variable.empty()) {
      std::vector<netsim::MaxMinFlow> specs;
      std::vector<std::size_t> index;  // into routed/grants
      for (std::size_t i = 0; i < query.variable.size(); ++i) {
        const std::size_t gi = query.fixed.size() + i;
        if (!routed[gi].routable) continue;
        netsim::MaxMinFlow spec;
        spec.resources = routed[gi].resources;
        spec.weight = std::max(routed[gi].request->requested, 1e-9);
        specs.push_back(std::move(spec));
        index.push_back(gi);
      }
      if (!specs.empty()) {
        const auto result = netsim::max_min_allocate(residual, specs);
        for (std::size_t k = 0; k < index.size(); ++k) {
          grants[index[k]][s] = result.rates[k];
          if (s == 2) satisfied_median[index[k]] = true;
        }
        residual = result.residual;
      }
    }

    // Stage 3: the independent flow absorbs the leftover bottleneck.
    if (query.independent) {
      const std::size_t gi = all.size() - 1;
      RoutedFlow& rf = routed[gi];
      if (rf.routable) {
        double bottleneck = std::numeric_limits<double>::infinity();
        for (std::size_t r : rf.resources)
          bottleneck = std::min(bottleneck, residual[r]);
        grants[gi][s] = rf.resources.empty() ? 0.0 : bottleneck;
        if (s == 2) satisfied_median[gi] = true;
      }
    }
  }

  // Assemble results: quartiles across scenarios (scenario 0 = least
  // background usage = highest grant, so reverse into ascending order).
  auto to_result = [&](std::size_t i) {
    FlowResult out;
    out.request = *all[i];
    out.routable = routed[i].routable;
    if (!routed[i].routable) return out;
    std::vector<double> g(grants[i].begin(), grants[i].end());
    out.bandwidth = Measurement::from_samples(g);
    out.bandwidth.samples = routed[i].min_samples ==
                                    std::numeric_limits<std::size_t>::max()
                                ? 1
                                : routed[i].min_samples;
    out.bandwidth.accuracy = routed[i].min_accuracy;
    out.latency = Measurement::exact(routed[i].latency);
    out.satisfied = satisfied_median[i];
    return out;
  };

  FlowQueryResult result;
  for (std::size_t i = 0; i < query.fixed.size(); ++i)
    result.fixed.push_back(to_result(i));
  for (std::size_t i = 0; i < query.multicast.size(); ++i) {
    MulticastResult out;
    out.request = query.multicast[i];
    out.routable = routed_mc[i].routable;
    if (out.routable) {
      std::vector<double> g(mc_grants[i].begin(), mc_grants[i].end());
      out.bandwidth = Measurement::from_samples(g);
      out.bandwidth.accuracy = routed_mc[i].min_accuracy;
      out.latency = Measurement::exact(routed_mc[i].latency);
      out.satisfied = mc_satisfied[i];
    }
    result.multicast.push_back(std::move(out));
  }
  for (std::size_t i = 0; i < query.variable.size(); ++i)
    result.variable.push_back(to_result(query.fixed.size() + i));
  if (query.independent) result.independent = to_result(all.size() - 1);
  return result;
}

/// What Modeler::flow_info answers, from the reference solver: the
/// topology and its named graph over the known endpoints (none when no
/// endpoint is known), then the five-sweep solve.
FlowQueryResult reference_flow_info(const NetworkModel& model,
                                    const FlowQuery& query, Seconds now,
                                    std::size_t& distinct) {
  query.timeframe.validate();
  const RoutingIndex& index = model.routing_index();
  const FlowEndpoints ends = resolve_endpoints(query, index);
  const EwmaPredictor predictor(0.3);
  LogicalTopology topo;
  NetworkGraph graph;
  if (!ends.known.empty()) {
    topo = build_logical_topology(model, ends.known, query.timeframe, now,
                                  predictor, LogicalOptions{});
    std::vector<std::string> names;
    for (const std::int32_t id : ends.known)
      names.push_back(index.name_of(id));
    graph = build_logical_graph(model, names, query.timeframe, now,
                                predictor, LogicalOptions{});
  }
  EXPECT_EQ(graph.link_count(), topo.links.size());
  return solve_on_graph(query, ends, index, topo, graph, distinct);
}

/// What Modeler::flow_info_batch answers, from the reference: shared
/// mode as one combined query, independent mode sub-query by sub-query.
FlowBatchResult reference_batch(const NetworkModel& model,
                                const FlowBatchQuery& batch, Seconds now) {
  FlowBatchResult out;
  out.results.resize(batch.queries.size());
  out.errors.resize(batch.queries.size());
  std::size_t distinct = 0;
  if (batch.mode == FlowBatchQuery::Mode::kShared) {
    FlowQuery combined;
    combined.timeframe = batch.queries.front().timeframe;
    std::size_t independents = 0;
    for (const FlowQuery& q : batch.queries) {
      if (!(q.timeframe == combined.timeframe))
        throw InvalidArgument(
            "flow_info_batch: shared batch requires one timeframe");
      if (q.independent) ++independents;
      combined.fixed.insert(combined.fixed.end(), q.fixed.begin(),
                            q.fixed.end());
      combined.multicast.insert(combined.multicast.end(),
                                q.multicast.begin(), q.multicast.end());
      combined.variable.insert(combined.variable.end(), q.variable.begin(),
                               q.variable.end());
      if (q.independent) combined.independent = q.independent;
    }
    if (independents > 1)
      throw InvalidArgument(
          "flow_info_batch: shared batch admits at most one independent "
          "flow");
    const FlowQueryResult cr =
        reference_flow_info(model, combined, now, distinct);
    std::size_t fi = 0, mi = 0, vi = 0;
    for (std::size_t i = 0; i < batch.queries.size(); ++i) {
      const FlowQuery& q = batch.queries[i];
      FlowQueryResult& r = out.results[i];
      for (std::size_t k = 0; k < q.fixed.size(); ++k)
        r.fixed.push_back(cr.fixed[fi + k]);
      for (std::size_t k = 0; k < q.multicast.size(); ++k)
        r.multicast.push_back(cr.multicast[mi + k]);
      for (std::size_t k = 0; k < q.variable.size(); ++k)
        r.variable.push_back(cr.variable[vi + k]);
      if (q.independent) r.independent = cr.independent;
      fi += q.fixed.size();
      mi += q.multicast.size();
      vi += q.variable.size();
    }
    return out;
  }
  for (std::size_t i = 0; i < batch.queries.size(); ++i) {
    try {
      out.results[i] =
          reference_flow_info(model, batch.queries[i], now, distinct);
    } catch (const std::exception& e) {
      out.errors[i] = e.what();
    }
  }
  return out;
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

bool same(const FlowRequest& p, const FlowRequest& q) {
  return p.src == q.src && p.dst == q.dst && same(p.requested, q.requested);
}

bool same(const FlowResult& p, const FlowResult& q) {
  return same(p.request, q.request) && p.satisfied == q.satisfied &&
         same(p.bandwidth, q.bandwidth) && same(p.latency, q.latency) &&
         p.routable == q.routable;
}

bool same(const MulticastResult& p, const MulticastResult& q) {
  return p.request.src == q.request.src && p.request.dsts == q.request.dsts &&
         same(p.request.requested, q.request.requested) &&
         p.satisfied == q.satisfied && same(p.bandwidth, q.bandwidth) &&
         same(p.latency, q.latency) && p.routable == q.routable;
}

bool same(const FlowQueryResult& p, const FlowQueryResult& q);

template <typename T>
bool same(const std::vector<T>& p, const std::vector<T>& q) {
  return std::ranges::equal(
      p, q, [](const T& a, const T& b) { return same(a, b); });
}

bool same(const FlowQueryResult& p, const FlowQueryResult& q) {
  return same(p.fixed, q.fixed) && same(p.multicast, q.multicast) &&
         same(p.variable, q.variable) &&
         p.independent.has_value() == q.independent.has_value() &&
         (!p.independent || same(*p.independent, *q.independent));
}

bool same(const FlowBatchResult& p, const FlowBatchResult& q) {
  return p.errors == q.errors && same(p.results, q.results);
}

// --- inputs -------------------------------------------------------------

enum class Load { kIdle, kUnequal, kEqual, kBursty };

/// A topology as discovery leaves it.  Idle: one quiet sample per link.
/// Loaded: eight samples per link, usage up to 1.2x capacity, unequal or
/// equal directions, or bursty -- mostly quiet with a rare spike, so the
/// low quartiles repeat and only the busiest scenarios differ; plus
/// mixed sharing policies, stale and never-sampled links, a few down
/// links, routers with an internal bandwidth and hosts with host info.
NetworkModel model_of(const netsim::Topology& topo, Load load,
                      std::uint64_t seed) {
  Rng rng(seed);
  NetworkModel model;
  for (const netsim::Node& n : topo.nodes()) {
    const bool router = n.kind == netsim::NodeKind::kNetwork;
    ModelNode& mn = model.upsert_node(n.name, router);
    mn.internal_bw = n.internal_bw;
    if (load == Load::kIdle) continue;
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
    if (load == Load::kIdle) {
      ml.last_update = 1.0;
      ml.history.record(collector::Sample{1.0, 0.0, 0.0});
      continue;
    }
    ml.sharing = static_cast<SharingPolicy>(rng.below(3));
    ml.last_update =
        rng.below(4) == 0 ? -1.0 : static_cast<double>(1 + rng.below(60));
    if (rng.below(50) == 0) model.set_link_up(ml, false);
    if (rng.below(10) == 0) continue;  // never sampled
    const auto usage = [&] {
      if (load == Load::kBursty && rng.below(8) != 0) return 0.0;
      return rng.uniform(0, 1.2) * l.capacity;
    };
    for (int t = 0; t < 8; ++t) {
      const double ab = usage();
      const double ba = load == Load::kEqual ? ab : usage();
      ml.history.record(collector::Sample{1.0 + 8.0 * t, ab, ba});
    }
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

/// One seeded query of `shape` over `hosts` (at least 4): fixed flows, a
/// variable all-to-all, an independent flow, a multicast tree, flows to
/// a host the model does not know, or all classes at once.
FlowQuery make_query(int shape, const std::vector<std::string>& hosts,
                     const Timeframe& timeframe, Rng& rng) {
  FlowQuery q;
  q.timeframe = timeframe;
  const auto rate = [&] { return mbps(static_cast<double>(1 + rng.below(150))); };
  const std::string& a = hosts[0];
  const std::string& b = hosts[1];
  const std::string& c = hosts[2];
  const std::string& d = hosts[3];
  switch (shape) {
    case 0:  // fixed
      q.fixed = {{a, b, rate()}, {c, d, rate()}, {b, a, rate()}};
      break;
    case 1:  // variable all-to-all
      for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
          if (i != j)
            q.variable.push_back(
                {hosts[i], hosts[j], static_cast<double>(1 + rng.below(4))});
      break;
    case 2:  // independent alone, then behind fixed traffic
      q.independent = FlowRequest{a, d, 0};
      if (rng.below(2)) q.fixed = {{a, c, rate()}};
      break;
    case 3:  // multicast, after one fixed flow
      q.fixed = {{b, c, rate()}};
      q.multicast = {{a, {b, c, d}, rate()}};
      break;
    case 4:  // unknown endpoints
      q.fixed = {{a, "no-such-host", rate()}, {a, b, rate()}};
      q.variable = {{"no-such-host", c, 2}, {c, d, 1}};
      q.multicast = {{a, {b, "no-such-host"}, rate()}};
      break;
    default:  // every class at once
      q.fixed = {{a, b, rate()}};
      q.multicast = {{c, {a, d}, rate()}};
      q.variable = {{a, c, 1}, {b, d, 3}, {d, a, 2}};
      q.independent = FlowRequest{b, c, 0};
      break;
  }
  return q;
}

struct Family {
  std::string name;
  std::function<netsim::Topology()> make;
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

class FlowDifferential : public ::testing::TestWithParam<Family> {};

TEST_P(FlowDifferential, AnswersMatchTheFiveSweepReference) {
  const netsim::Topology topo = GetParam().make();
  std::size_t queries = 0, mismatches = 0;
  std::string first;
  // Queries whose five scenarios all coincide, partly coincide, or are
  // all distinct, by their starting residuals.
  std::size_t all_coincide = 0, some_coincide = 0, none_coincide = 0;
  const auto note = [&](bool ok, const std::string& what) {
    ++queries;
    if (ok) return;
    ++mismatches;
    if (first.empty()) first = what;
  };
  for (const Load load :
       {Load::kIdle, Load::kUnequal, Load::kEqual, Load::kBursty}) {
    const NetworkModel model = model_of(
        topo, load, 0xf10u + topo.node_count() + static_cast<unsigned>(load));
    const bool idle = load == Load::kIdle;
    const Seconds now = idle ? 1.0 : 70.0;
    // The service sets a clock; a bare Modeler takes the newest sample.
    Modeler clocked(model);
    clocked.set_clock([now] { return now; });
    const Modeler unclocked(model);
    Seconds newest = 0;
    for (const ModelLink& l : model.links())
      if (!l.history.empty()) newest = std::max(newest, l.history.latest().at);

    Rng rng(0xd1ff0000u + topo.node_count() + static_cast<unsigned>(load));
    const Timeframe timeframes[] = {
        Timeframe::current(), Timeframe::statics(), Timeframe::history(30.0),
        Timeframe::history(10.0), Timeframe::future(10.0)};
    for (const Timeframe& tf : timeframes) {
      for (int shape = 0; shape < 6; ++shape) {
        const std::vector<std::string> hosts = pick_hosts(topo, 4, rng);
        const FlowQuery q = make_query(shape, hosts, tf, rng);
        const std::string what = std::string(idle ? "idle" : "loaded") +
                                 " load " +
                                 std::to_string(static_cast<int>(load)) +
                                 " timeframe " +
                                 std::to_string(static_cast<int>(tf.kind)) +
                                 " shape " + std::to_string(shape);
        const bool use_clock = rng.below(4) != 0;
        const Modeler& modeler = use_clock ? clocked : unclocked;
        const Seconds at = use_clock ? now : newest;

        std::size_t distinct = 0;
        const FlowQueryResult want =
            reference_flow_info(model, q, at, distinct);
        if (distinct == 1)
          ++all_coincide;
        else if (distinct == 5)
          ++none_coincide;
        else
          ++some_coincide;
        note(same(want, modeler.flow_info(q)), what + ": flow_info");

        // Batches: this query beside a second one, in both modes.
        FlowBatchQuery batch;
        batch.queries.push_back(q);
        batch.queries.push_back(
            make_query(static_cast<int>(rng.below(6)),
                       pick_hosts(topo, 4, rng), tf, rng));
        FlowQuery third = make_query(static_cast<int>(rng.below(2)),
                                     pick_hosts(topo, 4, rng), tf, rng);
        batch.queries.push_back(third);
        for (const auto mode : {FlowBatchQuery::Mode::kIndependent,
                                FlowBatchQuery::Mode::kShared}) {
          batch.mode = mode;
          const std::string label =
              what + (mode == FlowBatchQuery::Mode::kShared
                          ? ": shared batch"
                          : ": independent batch");
          std::string want_error, got_error;
          FlowBatchResult want_batch, got_batch;
          try {
            want_batch = reference_batch(model, batch, at);
          } catch (const std::exception& e) {
            want_error = e.what();
          }
          try {
            got_batch = modeler.flow_info_batch(batch);
          } catch (const std::exception& e) {
            got_error = e.what();
          }
          note(want_error == got_error && same(want_batch, got_batch), label);
        }
      }
    }
    // A malformed sub-query lands in errors[i] in independent mode.
    FlowBatchQuery malformed;
    const std::vector<std::string> hosts = pick_hosts(topo, 4, rng);
    malformed.queries.push_back(
        make_query(0, hosts, Timeframe::history(30.0), rng));
    FlowQuery self;
    self.fixed = {{hosts[0], hosts[0], mbps(1)}};
    malformed.queries.push_back(self);
    note(same(reference_batch(model, malformed, now),
              clocked.flow_info_batch(malformed)),
         "malformed independent batch");
  }
  EXPECT_EQ(mismatches, 0u) << mismatches << " of " << queries
                            << " answers differ; first " << first;
  // Every family sees queries of all three kinds, so the scenario reuse
  // is exercised where it applies and where it must not.
  EXPECT_GT(all_coincide, 0u);
  EXPECT_GT(some_coincide, 0u);
  EXPECT_GT(none_coincide, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Families, FlowDifferential,
    ::testing::Values(
        Family{"Cmu", [] { return netsim::make_cmu_testbed(); }},
        Family{"Figure1", [] { return netsim::make_figure1(mbps(100)); }},
        Family{"FatTree4", [] { return fat_tree(4); }},
        Family{"FatTree8", [] { return fat_tree(8); }},
        Family{"Dumbbell1", [] { return dumbbell(1); }},
        Family{"Dumbbell3", [] { return dumbbell(3); }},
        Family{"Waxman64Seed1", [] { return waxman(64, 16, 1); }},
        Family{"Waxman64Seed2", [] { return waxman(64, 16, 2); }},
        Family{"Waxman256", [] { return waxman(256, 64, 11); }}),
    family_name);

// --- concurrent workers on one snapshot --------------------------------

TEST(FlowWorkers, ShareOneIndexAcrossThreads) {
  // The service's hot path: per-query Modelers on worker threads over
  // one immutable snapshot, so every worker reads the same routing index
  // and its by-id tables.  Each worker's answers must equal a serial run
  // on a copy (which builds its own, cold index).
  const NetworkModel model = model_of(fat_tree(8), Load::kUnequal, 0x7ead);
  const NetworkModel serial_copy = model;
  const netsim::Topology topo = fat_tree(8);
  Rng rng(0x5eed);
  std::vector<FlowQuery> queries;
  for (int i = 0; i < 24; ++i)
    queries.push_back(make_query(i % 6, pick_hosts(topo, 4, rng),
                                 i % 2 ? Timeframe::history(30.0)
                                       : Timeframe::current(),
                                 rng));
  const auto answer = [](const NetworkModel& m, const FlowQuery& q) {
    Modeler modeler(m);
    modeler.set_clock([] { return 70.0; });
    return modeler.flow_info(q);
  };
  std::vector<FlowQueryResult> want;
  for (const FlowQuery& q : queries) want.push_back(answer(serial_copy, q));

  constexpr int kWorkers = 4;
  std::vector<std::vector<FlowQueryResult>> got(kWorkers);
  std::vector<const RoutingIndex*> index_seen(kWorkers, nullptr);
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      index_seen[static_cast<std::size_t>(w)] = &model.routing_index();
      for (std::size_t k = 0; k < queries.size(); ++k) {
        // Each worker starts at a different query, so rows are first
        // searched by different threads.
        const std::size_t i =
            (k + static_cast<std::size_t>(w) * 5) % queries.size();
        got[static_cast<std::size_t>(w)].push_back(answer(model, queries[i]));
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(index_seen[static_cast<std::size_t>(w)], &model.routing_index());
    for (std::size_t k = 0; k < queries.size(); ++k) {
      const std::size_t i =
          (k + static_cast<std::size_t>(w) * 5) % queries.size();
      EXPECT_TRUE(same(want[i], got[static_cast<std::size_t>(w)][k]))
          << "worker " << w << " query " << i;
    }
  }
}

}  // namespace
}  // namespace remos::core
