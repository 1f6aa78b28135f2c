#include "core/modeler.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>

#include "netsim/maxmin.hpp"
#include "util/error.hpp"

namespace remos::core {

ModelerObs ModelerObs::resolve(const obs::Obs& o) {
  ModelerObs m;
  if (o.metrics) {
    m.graph_queries =
        o.metrics->counter("remos_modeler_graph_queries_total", {},
                           "Logical-topology queries answered");
    m.flow_queries = o.metrics->counter(
        "remos_modeler_flow_queries_total", {}, "Flow queries answered");
    m.partial_graphs = o.metrics->counter(
        "remos_modeler_partial_graphs_total", {},
        "Graph answers that dropped unknown nodes (partial results)");
    m.unroutable_flows = o.metrics->counter(
        "remos_modeler_unroutable_flows_total", {},
        "Flow results returned with routable=false");
    m.solve_duration = o.metrics->histogram(
        "remos_modeler_solve_duration_seconds",
        obs::default_time_buckets(), {},
        "Max-min scenario sweep duration per flow query");
  }
  return m;
}

Modeler::Modeler(const collector::NetworkModel& model) : model_(model) {}

void Modeler::set_clock(std::function<Seconds()> clock) {
  clock_ = std::move(clock);
}

void Modeler::set_predictor(std::unique_ptr<Predictor> predictor) {
  if (!predictor) throw InvalidArgument("set_predictor: null predictor");
  predictor_ = std::move(predictor);
}

Seconds Modeler::now(const collector::NetworkModel& m) const {
  if (clock_) return clock_();
  Seconds newest = 0;
  for (const collector::ModelLink& l : m.links())
    if (!l.history.empty()) newest = std::max(newest, l.history.latest().at);
  return newest;
}

GraphResult Modeler::get_graph_result(const std::vector<std::string>& nodes,
                                      const Timeframe& timeframe,
                                      const LogicalOptions& options) const {
  GraphResult out;
  try {
    timeframe.validate();
  } catch (const std::exception& e) {
    out.status = obs::GraphStatus::kInvalid;
    out.error = e.what();
    return out;
  }
  // Counted once valid, as flow_info counts its queries.
  if (obs_) obs_->graph_queries.inc();
  const collector::NetworkModel& m = model_;

  // Partition the queried names so one typo degrades the answer instead
  // of aborting it.
  std::vector<std::string> known;
  known.reserve(nodes.size());
  for (const std::string& n : nodes) {
    if (m.has_node(n))
      known.push_back(n);
    else
      out.unknown_nodes.push_back(n);
  }
  if (!nodes.empty() && known.empty()) {
    out.status = obs::GraphStatus::kUnresolved;
    return out;
  }

  {
    obs::TraceBuilder::Scoped span(trace_, "logical_build");
    try {
      out.graph = build_logical_graph(m, known, timeframe, now(m),
                                      *predictor_, options);
    } catch (const std::exception& e) {
      out.status = obs::GraphStatus::kInvalid;
      out.error = e.what();
      out.graph = NetworkGraph{};
      return out;
    }
  }
  if (!out.unknown_nodes.empty()) {
    out.status = obs::GraphStatus::kPartial;
    if (obs_) obs_->partial_graphs.inc();
  }
  return out;
}

NetworkGraph Modeler::get_graph(const std::vector<std::string>& nodes,
                                const Timeframe& timeframe,
                                const LogicalOptions& options) const {
  GraphResult r = get_graph_result(nodes, timeframe, options);
  if (r.status == obs::GraphStatus::kInvalid) throw InvalidArgument(r.error);
  if (!r.unknown_nodes.empty())
    throw NotFoundError("get_graph: unknown node " + r.unknown_nodes.front());
  return std::move(r.graph);
}

namespace {

/// A routed query flow ready for allocation: its directed link and node
/// resources are resources[first, first + count) of the query's one
/// resource list.
struct RoutedFlow {
  const FlowRequest* request = nullptr;
  std::size_t first = 0, count = 0;
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

/// The query's unicast flows: fixed, then variable, then independent.
std::vector<const FlowRequest*> flows_of(const FlowQuery& query) {
  std::vector<const FlowRequest*> all;
  all.reserve(query.fixed.size() + query.variable.size() + 1);
  for (const FlowRequest& f : query.fixed) all.push_back(&f);
  for (const FlowRequest& f : query.variable) all.push_back(&f);
  if (query.independent) all.push_back(&*query.independent);
  return all;
}

/// Validates the flow structure (the InvalidArgument throws here are
/// flow_info's documented contract) and resolves every endpoint.
FlowEndpoints resolve_endpoints(const FlowQuery& query,
                                const collector::RoutingIndex& index) {
  const std::vector<const FlowRequest*> all = flows_of(query);
  if (all.empty() && query.multicast.empty())
    throw InvalidArgument("flow_info: no flows in query");

  FlowEndpoints out;
  out.flows.reserve(all.size());
  out.multicast.reserve(query.multicast.size());
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
  out.known.reserve(2 * out.flows.size());
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
/// table; `topo` must have been built from the model `routing` indexes.
FlowQueryResult solve_on_graph(const FlowQuery& query,
                               const FlowEndpoints& ends,
                               const collector::RoutingIndex& routing,
                               const LogicalTopology& topo,
                               const ModelerObs* metrics,
                               obs::TraceBuilder* trace) {
  const std::vector<const FlowRequest*> all = flows_of(query);

  // Resource table over the logical graph: two directed resources per
  // link, then one per node with a known internal bandwidth.
  const std::size_t nl = topo.links.size();
  std::vector<std::int32_t> constrained_nodes;  // ids, ascending
  std::vector<double> node_capacity;
  for (const LogicalTopology::Node& n : topo.nodes) {
    if (n.internal_bw > 0) {
      constrained_nodes.push_back(n.id);
      node_capacity.push_back(n.internal_bw);
    }
  }

  // Route every flow once, on the model: its route there (the route the
  // simulator forwards it on) through the topology's link table.
  const std::size_t route_span =
      trace ? trace->open("route_resolution") : 0;
  const auto node_resource =
      [&](std::int32_t id) -> std::optional<std::size_t> {
    const auto it = std::lower_bound(constrained_nodes.begin(),
                                     constrained_nodes.end(), id);
    if (it == constrained_nodes.end() || *it != id) return std::nullopt;
    return 2 * nl + static_cast<std::size_t>(it - constrained_nodes.begin());
  };
  const auto link_resource = [](const LogicalTopology::Hop& hop) {
    return 2 * std::size_t{hop.link} + (hop.forward ? 0 : 1);
  };
  std::vector<LogicalTopology::Hop> hops;
  std::vector<std::size_t> resources;
  std::vector<RoutedFlow> routed(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    RoutedFlow& rf = routed[i];
    rf.request = all[i];
    const auto [src, dst] = ends.flows[i];
    if (!topo.route(routing, src, dst, hops))
      continue;  // unknown endpoint or no route: unroutable
    rf.routable = true;
    rf.first = resources.size();
    for (const LogicalTopology::Hop& hop : hops) {
      const LogicalTopology::Link& l = topo.links[hop.link];
      resources.push_back(link_resource(hop));
      rf.latency += l.latency;
      const Measurement& used = hop.forward ? l.used_ab : l.used_ba;
      if (used.known()) {
        rf.min_samples = std::min(rf.min_samples, used.samples);
        rf.min_accuracy = std::min(rf.min_accuracy, used.accuracy);
      }
    }
    if (const auto r = node_resource(src)) resources.push_back(*r);
    for (const LogicalTopology::Hop& hop : hops)
      if (const auto r = node_resource(topo.far_end(hop)))
        resources.push_back(*r);
    rf.count = resources.size() - rf.first;
  }
  const auto resources_of = [&](const RoutedFlow& rf) {
    return std::span<const std::size_t>(resources).subspan(rf.first,
                                                           rf.count);
  };

  // Route the multicast trees: the resource set is the union over the
  // per-receiver paths (each tree link charged once), latency is the
  // farthest receiver's.
  struct RoutedMulticast {
    std::vector<std::size_t> resources;  // ascending
    Seconds latency = 0;
    double min_accuracy = 1.0;
    bool routable = true;
  };
  std::vector<RoutedMulticast> routed_mc(query.multicast.size());
  for (std::size_t i = 0; i < query.multicast.size(); ++i) {
    RoutedMulticast& rm = routed_mc[i];
    const std::int32_t src = ends.multicast[i].front();
    for (std::size_t d = 1; d < ends.multicast[i].size(); ++d) {
      if (!topo.route(routing, src, ends.multicast[i][d], hops)) {
        rm.routable = false;
        break;
      }
      Seconds leaf_latency = 0;
      for (const LogicalTopology::Hop& hop : hops) {
        const LogicalTopology::Link& l = topo.links[hop.link];
        rm.resources.push_back(link_resource(hop));
        leaf_latency += l.latency;
        const Measurement& used = hop.forward ? l.used_ab : l.used_ba;
        if (used.known())
          rm.min_accuracy = std::min(rm.min_accuracy, used.accuracy);
      }
      rm.latency = std::max(rm.latency, leaf_latency);
      if (const auto r = node_resource(src)) rm.resources.push_back(*r);
      for (const LogicalTopology::Hop& hop : hops)
        if (const auto r = node_resource(topo.far_end(hop)))
          rm.resources.push_back(*r);
    }
    std::sort(rm.resources.begin(), rm.resources.end());
    rm.resources.erase(std::unique(rm.resources.begin(), rm.resources.end()),
                       rm.resources.end());
  }
  if (trace) trace->close(route_span);

  // Evaluate the staged allocation under each background scenario.
  const std::size_t solve_span =
      trace ? trace->open("maxmin_solve") : 0;
  const auto solve_t0 = std::chrono::steady_clock::now();
  constexpr std::size_t kScenarios = 5;
  std::vector<std::array<double, kScenarios>> grants(all.size());
  std::vector<std::array<double, kScenarios>> mc_grants(
      query.multicast.size());
  std::vector<netsim::MaxMinFlow> specs;
  std::vector<std::size_t> spec_flow;  // into routed/grants
  for (std::size_t i = 0; i < query.variable.size(); ++i) {
    const std::size_t gi = query.fixed.size() + i;
    if (!routed[gi].routable) continue;
    const std::span<const std::size_t> rs = resources_of(routed[gi]);
    specs.push_back({{rs.begin(), rs.end()},
                     std::max(routed[gi].request->requested, 1e-9)});
    spec_flow.push_back(gi);
  }

  // A sweep is a function of its starting residuals.  The quartiles are
  // ordered, so a scenario that repeats an earlier one repeats the one
  // before it: comparing each scenario's residuals, bit for bit, with
  // the previous scenario's finds every repeat, which reuses the
  // previous grants.
  const std::size_t nr = 2 * nl + constrained_nodes.size();
  std::vector<double> start(nr), prev_start(nr), residual(nr);
  for (std::size_t k = 0; k < constrained_nodes.size(); ++k)
    start[2 * nl + k] = prev_start[2 * nl + k] = node_capacity[k];
  for (std::size_t s = 0; s < kScenarios; ++s) {
    for (std::size_t i = 0; i < nl; ++i) {
      const LogicalTopology::Link& l = topo.links[i];
      start[2 * i] = std::max(0.0, l.capacity - used_at(l.used_ab, s));
      start[2 * i + 1] = std::max(0.0, l.capacity - used_at(l.used_ba, s));
    }
    if (s > 0 && std::ranges::equal(start, prev_start, [](double p, double q) {
          return std::bit_cast<std::uint64_t>(p) ==
                 std::bit_cast<std::uint64_t>(q);
        })) {
      for (std::array<double, kScenarios>& g : grants) g[s] = g[s - 1];
      for (std::array<double, kScenarios>& g : mc_grants) g[s] = g[s - 1];
      continue;
    }
    residual = start;
    std::swap(start, prev_start);  // keep this scenario's as the previous

    // Stage 1: fixed flows, in query order (first come, first admitted).
    for (std::size_t i = 0; i < query.fixed.size(); ++i) {
      const RoutedFlow& rf = routed[i];
      if (!rf.routable) continue;
      double bottleneck = std::numeric_limits<double>::infinity();
      for (std::size_t r : resources_of(rf))
        bottleneck = std::min(bottleneck, residual[r]);
      const double grant = std::min(rf.request->requested, bottleneck);
      grants[i][s] = grant;
      for (std::size_t r : resources_of(rf)) residual[r] -= grant;
    }

    // Stage 1b: multicast trees, admitted after the unicast fixed class.
    for (std::size_t i = 0; i < query.multicast.size(); ++i) {
      const RoutedMulticast& rm = routed_mc[i];
      if (!rm.routable) continue;
      double bottleneck = std::numeric_limits<double>::infinity();
      for (std::size_t r : rm.resources)
        bottleneck = std::min(bottleneck, residual[r]);
      const double grant =
          std::min(query.multicast[i].requested, bottleneck);
      mc_grants[i][s] = grant;
      for (std::size_t r : rm.resources) residual[r] -= grant;
    }

    // Stage 2: variable flows, weighted max-min on the residual.
    if (!specs.empty()) {
      netsim::MaxMinResult result = netsim::max_min_allocate(residual, specs);
      for (std::size_t k = 0; k < spec_flow.size(); ++k)
        grants[spec_flow[k]][s] = result.rates[k];
      residual = std::move(result.residual);
    }

    // Stage 3: the independent flow absorbs the leftover bottleneck.
    if (query.independent) {
      const RoutedFlow& rf = routed[all.size() - 1];
      if (rf.routable) {
        double bottleneck = std::numeric_limits<double>::infinity();
        for (std::size_t r : resources_of(rf))
          bottleneck = std::min(bottleneck, residual[r]);
        grants[all.size() - 1][s] = rf.count == 0 ? 0.0 : bottleneck;
      }
    }
  }

  if (metrics)
    metrics->solve_duration.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      solve_t0)
            .count());
  if (trace) trace->close(solve_span);

  // Assemble results: quartiles across scenarios (scenario 0 = least
  // background usage = highest grant).  A fixed or multicast flow is
  // satisfied if its median-scenario grant covers the request; variable
  // and independent flows are satisfied whenever routable.
  obs::TraceBuilder::Scoped assemble_span(trace, "assemble");
  const auto covers = [](double grant, double requested) {
    return grant >= requested * (1 - 1e-9);
  };
  auto to_result = [&](std::size_t i) {
    FlowResult out;
    out.request = *all[i];
    out.routable = routed[i].routable;
    if (!routed[i].routable) {
      if (metrics) metrics->unroutable_flows.inc();
      return out;
    }
    out.bandwidth = Measurement::from_samples(grants[i]);
    out.bandwidth.samples = routed[i].min_samples ==
                                    std::numeric_limits<std::size_t>::max()
                                ? 1
                                : routed[i].min_samples;
    out.bandwidth.accuracy = routed[i].min_accuracy;
    out.latency = Measurement::exact(routed[i].latency);
    out.satisfied = i >= query.fixed.size() ||
                    covers(grants[i][2], out.request.requested);
    return out;
  };

  FlowQueryResult result;
  result.fixed.reserve(query.fixed.size());
  for (std::size_t i = 0; i < query.fixed.size(); ++i)
    result.fixed.push_back(to_result(i));
  result.multicast.reserve(query.multicast.size());
  for (std::size_t i = 0; i < query.multicast.size(); ++i) {
    MulticastResult out;
    out.request = query.multicast[i];
    out.routable = routed_mc[i].routable;
    if (!out.routable && metrics) metrics->unroutable_flows.inc();
    if (out.routable) {
      out.bandwidth = Measurement::from_samples(mc_grants[i]);
      out.bandwidth.accuracy = routed_mc[i].min_accuracy;
      out.latency = Measurement::exact(routed_mc[i].latency);
      out.satisfied = covers(mc_grants[i][2], out.request.requested);
    }
    result.multicast.push_back(std::move(out));
  }
  result.variable.reserve(query.variable.size());
  for (std::size_t i = 0; i < query.variable.size(); ++i)
    result.variable.push_back(to_result(query.fixed.size() + i));
  if (query.independent) result.independent = to_result(all.size() - 1);
  return result;
}

}  // namespace

FlowQueryResult Modeler::flow_info(const FlowQuery& query) const {
  query.timeframe.validate();
  if (obs_) obs_->flow_queries.inc();
  // Endpoints -> logical graph for the query's timeframe.  Endpoints the
  // model does not know make their flows structured routable=false
  // results instead of a NotFoundError escaping the query API
  // mid-session; the logical graph is built over the known ones (no
  // known endpoint -> empty graph).
  const collector::NetworkModel& m = model_;
  const collector::RoutingIndex& routing = m.routing_index();
  const FlowEndpoints ends = resolve_endpoints(query, routing);
  LogicalTopology topo;
  {
    obs::TraceBuilder::Scoped span(trace_, "logical_build");
    if (!ends.known.empty())
      topo = build_logical_topology(m, ends.known, query.timeframe, now(m),
                                    *predictor_, LogicalOptions{});
  }
  return solve_on_graph(query, ends, routing, topo, obs_, trace_);
}

FlowBatchResult Modeler::flow_info_batch(const FlowBatchQuery& batch) const {
  if (batch.queries.empty())
    throw InvalidArgument("flow_info_batch: empty batch");
  FlowBatchResult out;
  out.results.resize(batch.queries.size());
  out.errors.resize(batch.queries.size());

  if (batch.mode == FlowBatchQuery::Mode::kShared) {
    // Co-scheduled: the batch IS one combined simultaneous query (paper
    // §4), so one staged max-min sweep prices every sub-query's flows
    // against each other.  The combined query has a single timeframe and
    // at most one independent flow; anything else is a contradiction in
    // the sharing semantics, not an answerable question.
    const Timeframe& tf = batch.queries.front().timeframe;
    std::size_t independents = 0;
    for (const FlowQuery& q : batch.queries) {
      if (q.timeframe.kind != tf.kind || q.timeframe.window != tf.window ||
          q.timeframe.horizon != tf.horizon)
        throw InvalidArgument(
            "flow_info_batch: shared batch requires one timeframe");
      if (q.independent) ++independents;
    }
    if (independents > 1)
      throw InvalidArgument(
          "flow_info_batch: shared batch admits at most one independent "
          "flow");

    FlowQuery combined;
    combined.timeframe = tf;
    for (const FlowQuery& q : batch.queries) {
      combined.fixed.insert(combined.fixed.end(), q.fixed.begin(),
                            q.fixed.end());
      combined.multicast.insert(combined.multicast.end(),
                                q.multicast.begin(), q.multicast.end());
      combined.variable.insert(combined.variable.end(), q.variable.begin(),
                               q.variable.end());
      if (q.independent) combined.independent = q.independent;
    }
    const FlowQueryResult cr = flow_info(combined);

    // Scatter the combined answer back by sub-query offsets.
    std::size_t fi = 0, mi = 0, vi = 0;
    for (std::size_t i = 0; i < batch.queries.size(); ++i) {
      const FlowQuery& q = batch.queries[i];
      FlowQueryResult& r = out.results[i];
      r.fixed.assign(cr.fixed.begin() + static_cast<std::ptrdiff_t>(fi),
                     cr.fixed.begin() +
                         static_cast<std::ptrdiff_t>(fi + q.fixed.size()));
      r.multicast.assign(
          cr.multicast.begin() + static_cast<std::ptrdiff_t>(mi),
          cr.multicast.begin() +
              static_cast<std::ptrdiff_t>(mi + q.multicast.size()));
      r.variable.assign(
          cr.variable.begin() + static_cast<std::ptrdiff_t>(vi),
          cr.variable.begin() +
              static_cast<std::ptrdiff_t>(vi + q.variable.size()));
      if (q.independent) r.independent = cr.independent;
      fi += q.fixed.size();
      mi += q.multicast.size();
      vi += q.variable.size();
    }
    return out;
  }

  // Independent mode: each sub-query is answered by a lone flow_info
  // call; a malformed one lands in its error slot.
  for (std::size_t i = 0; i < batch.queries.size(); ++i) {
    try {
      out.results[i] = flow_info(batch.queries[i]);
    } catch (const std::exception& e) {
      out.errors[i] = e.what();
    }
  }
  return out;
}

}  // namespace remos::core
