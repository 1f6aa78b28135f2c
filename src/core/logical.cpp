#include "core/logical.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace remos::core {

namespace {

using collector::ModelLink;
using collector::ModelNode;
using collector::NetworkModel;
using collector::RoutingIndex;
using Link = LogicalTopology::Link;

std::int32_t other(const Link& l, std::int32_t end) {
  return l.a == end ? l.b : l.a;
}

/// Collapses router n out of l1 = x--n and l2 = n--y (l1 the older) into
/// x--y: min capacity, summed latency, and per direction the usage that
/// leaves the least availability along the chain.
Link merge(const Link& l1, const Link& l2, std::int32_t n, std::int32_t x,
           std::int32_t y) {
  // Direction bookkeeping: usage seen traveling x -> n -> y.
  auto used_towards = [](const Link& l, std::int32_t to) {
    return l.b == to ? l.used_ab : l.used_ba;
  };
  const double cap = std::min(l1.capacity, l2.capacity);
  // Logical usage: whatever leaves the *least* availability along the
  // chain, per direction, element-wise on quartiles.
  auto merge_used = [&](std::int32_t from) {
    const Measurement a1 = availability(Measurement::exact(l1.capacity),
                                        used_towards(l1, from == x ? n : x));
    const Measurement a2 = availability(Measurement::exact(l2.capacity),
                                        used_towards(l2, from == x ? y : n));
    if (!l1.used_ab.known() && !l2.used_ab.known() && !l1.used_ba.known() &&
        !l2.used_ba.known())
      return Measurement{};
    Measurement out;
    auto lo = [](double p, double q) { return std::min(p, q); };
    // available = min(a1, a2); used = cap - available (per quartile).
    out.quartiles.min = cap - lo(a1.quartiles.max, a2.quartiles.max);
    out.quartiles.q1 = cap - lo(a1.quartiles.q3, a2.quartiles.q3);
    out.quartiles.median = cap - lo(a1.quartiles.median, a2.quartiles.median);
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
  // A chain of uniform policy keeps it; a mixed chain is opaque.
  return Link{x,
              y,
              cap,
              l1.latency + l2.latency,
              merge_used(x),
              merge_used(y),
              l1.sharing == l2.sharing ? l1.sharing : SharingPolicy::kUnknown};
}

/// The one pass that attaches names: `topo` as the value graph the API
/// returns, its links in topo.links order.  Names come in ascending order
/// and links are unique between present nodes, so both append directly,
/// skipping add_link's O(links) duplicate scan.
NetworkGraph named_graph(const LogicalTopology& topo,
                         const RoutingIndex& index) {
  NetworkGraph graph;
  auto& nodes = graph.mutable_nodes();
  for (const LogicalTopology::Node& n : topo.nodes) {
    const ModelNode& mn = index.node(n.id);
    nodes.emplace_hint(nodes.end(), mn.name,
                       GraphNode{mn.name, !mn.is_router(),
                                 n.internal_bw > 0
                                     ? Measurement::exact(n.internal_bw)
                                     : Measurement{},
                                 mn.has_host_info, mn.cpu_load,
                                 mn.memory_mb});
  }
  std::vector<GraphLink>& links = graph.mutable_links();
  links.reserve(topo.links.size());
  for (const Link& l : topo.links)
    links.push_back({index.name_of(l.a), index.name_of(l.b),
                     Measurement::exact(l.capacity),
                     Measurement::exact(l.latency), l.used_ab, l.used_ba,
                     {}, l.sharing});
  // Ascending router ids, so each link lists its routers in name order.
  for (const LogicalTopology::Hidden& h : topo.hidden)
    links[h.link].abstracts.push_back(index.name_of(h.router));
  return graph;
}

}  // namespace

Measurement used_for_timeframe(const collector::LinkHistory& history,
                               const Timeframe& timeframe, Seconds now,
                               bool ab, const Predictor& predictor,
                               obs::WindowStats* window_out) {
  switch (timeframe.kind) {
    case Timeframe::Kind::kStatic:
      return Measurement{};  // no dynamic content requested
    case Timeframe::Kind::kCurrent: {
      if (history.empty()) return Measurement{};
      const collector::Sample& s = history.latest();
      return Measurement::from_samples(
          std::array<double, 1>{ab ? s.used_ab : s.used_ba});
    }
    case Timeframe::Kind::kHistory: {
      obs::WindowStats w =
          history.used_windowed(now, timeframe.window, ab);
      if (window_out) *window_out = w;
      return w.measurement;
    }
    case Timeframe::Kind::kFuture: {
      std::vector<TimedSample> series;
      for (std::size_t i = 0; i < history.size(); ++i) {
        const collector::Sample& s = history.sample(i);
        if (timeframe.window > 0 && s.at <= now - timeframe.window) continue;
        if (s.at > now) continue;
        series.push_back(TimedSample{s.at, ab ? s.used_ab : s.used_ba});
      }
      return predictor.predict(series);
    }
  }
  return Measurement{};
}

bool LogicalTopology::route(const RoutingIndex& index, std::int32_t src,
                            std::int32_t dst, std::vector<Hop>& hops) const {
  hops.clear();
  if (src == RoutingIndex::kNoNode || dst == RoutingIndex::kNoNode)
    return false;
  const RoutingIndex::Row& row = index.row_from(src);
  if (row.prev_node[static_cast<std::size_t>(dst)] == RoutingIndex::kNoNode)
    return false;  // unreachable
  // Walk dst back to src.  A hop's direction is set by the node its run
  // of model links starts from, which the backward walk meets last.
  for (std::int32_t cur = dst; cur != src;) {
    const auto c = static_cast<std::size_t>(cur);
    const auto li = static_cast<std::uint32_t>(row.prev_link[c]);
    const auto it =
        std::lower_bound(model_links.begin(), model_links.end(), li);
    if (it == model_links.end() || *it != li) return false;
    const std::uint32_t link =
        logical_of[static_cast<std::size_t>(it - model_links.begin())];
    cur = row.prev_node[c];
    const bool forward = cur == links[link].a;
    if (!hops.empty() && hops.back().link == link)
      hops.back().forward = forward;
    else
      hops.push_back({link, forward});
  }
  std::reverse(hops.begin(), hops.end());
  return true;
}

LogicalTopology build_logical_topology(const NetworkModel& model,
                                       const std::vector<std::int32_t>& nodes,
                                       const Timeframe& timeframe,
                                       Seconds now, const Predictor& predictor,
                                       const LogicalOptions& options) {
  if (nodes.empty())
    throw InvalidArgument("build_logical_graph: empty node set");
  const RoutingIndex& index = model.routing_index();
  const std::vector<ModelLink>& links = model.links();
  constexpr std::int32_t kNoNode = RoutingIndex::kNoNode;

  // 1. Relevant subgraph: union of the routes between every *ordered*
  // pair of queried nodes (under ties b->a need not retrace a->b), from
  // the model's cached RoutingIndex rows.  A row is a tree, so each
  // source's walks stop at the first node already reached from it: the
  // walks cost O(kept nodes) per source, and this step and the
  // annotation below cost O(kept links), not O(model).  Orientation
  // comes from the index's link table, so no name is compared.
  struct KeptLink {
    std::uint32_t link;  // into model.links()
    std::int32_t a, b;   // its ends, in the model link's orientation
  };
  std::vector<std::int32_t> kept_nodes;
  std::vector<KeptLink> kept;
  std::vector<std::int32_t> slot(index.node_count(), kNoNode);
  const auto keep_node = [&](std::int32_t v) {
    std::int32_t& s = slot[static_cast<std::size_t>(v)];
    if (s != kNoNode) return;
    s = 0;  // numbered below, once kept_nodes is sorted
    kept_nodes.push_back(v);
  };
  if (options.keep_all) {
    for (std::size_t v = 0; v < index.node_count(); ++v)
      keep_node(static_cast<std::int32_t>(v));
    for (std::size_t li = 0; li < links.size(); ++li)
      if (links[li].up())
        kept.push_back({static_cast<std::uint32_t>(li), index.link_a(li),
                        index.id_of(links[li].b)});
  } else {
    std::vector<std::int32_t> reached_from(index.node_count(), kNoNode);
    std::vector<char> taken(links.size(), 0);
    for (const std::int32_t a : nodes) {
      keep_node(a);
      reached_from[static_cast<std::size_t>(a)] = a;
      const RoutingIndex::Row& row = index.row_from(a);
      for (const std::int32_t b : nodes) {
        if (b == a ||
            row.prev_node[static_cast<std::size_t>(b)] == kNoNode)
          continue;  // unreachable pair
        for (std::int32_t cur = b;
             reached_from[static_cast<std::size_t>(cur)] != a;) {
          const auto c = static_cast<std::size_t>(cur);
          reached_from[c] = a;
          keep_node(cur);
          const std::int32_t prev = row.prev_node[c];
          const auto li = static_cast<std::size_t>(row.prev_link[c]);
          if (!taken[li]) {
            taken[li] = 1;
            const bool cur_is_a = index.link_a(li) == cur;
            kept.push_back({static_cast<std::uint32_t>(li),
                            cur_is_a ? cur : prev, cur_is_a ? prev : cur});
          }
          cur = prev;
        }
      }
    }
    // Model link order, so the graph matches a scan of model.links().
    std::ranges::sort(kept, {}, &KeptLink::link);
  }
  std::sort(kept_nodes.begin(), kept_nodes.end());
  const std::size_t nk = kept_nodes.size();
  for (std::size_t s = 0; s < nk; ++s)
    slot[static_cast<std::size_t>(kept_nodes[s])] =
        static_cast<std::int32_t>(s);
  const auto slot_of = [&](std::int32_t v) {
    return static_cast<std::size_t>(slot[static_cast<std::size_t>(v)]);
  };
  std::vector<char> queried(nk, 0);
  for (const std::int32_t a : nodes) queried[slot_of(a)] = 1;

  // Each kept node's working links (CSR, by slot).  Collapsing keeps
  // every degree, so the lists keep their sizes; a merge rewrites one
  // entry at each far end.
  std::vector<std::uint32_t> offset(nk + 1, 0);
  for (const KeptLink& k : kept) {
    ++offset[slot_of(k.a) + 1];
    ++offset[slot_of(k.b) + 1];
  }
  std::partial_sum(offset.begin(), offset.end(), offset.begin());
  std::vector<std::uint32_t> incident(offset.back());
  {
    std::vector<std::uint32_t> fill(offset.begin(), offset.end() - 1);
    for (std::uint32_t i = 0; i < kept.size(); ++i) {
      incident[fill[slot_of(kept[i].a)]++] = i;
      incident[fill[slot_of(kept[i].b)]++] = i;
    }
  }
  const auto degree = [&](std::size_t s) { return offset[s + 1] - offset[s]; };

  // Annotated working copies of the kept links.  Merged chains are
  // appended; merged_into is each entry's union-find parent (itself
  // while the link survives).
  std::vector<Link> work;
  work.reserve(2 * kept.size());
  std::vector<std::uint32_t> merged_into;
  merged_into.reserve(2 * kept.size());
  for (const KeptLink& k : kept) {
    const ModelLink& l = links[k.link];
    Link w{k.a,
           k.b,
           l.capacity,
           l.latency,
           used_for_timeframe(l.history, timeframe, now, true, predictor),
           used_for_timeframe(l.history, timeframe, now, false, predictor),
           l.sharing};
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
    merged_into.push_back(static_cast<std::uint32_t>(work.size()));
    work.push_back(w);
  }

  // 2. Chain collapsing, one pass over the eligible routers in id (=
  // name) order: unqueried, no internal bandwidth (a constraint to
  // keep), degree 2.  A merge never changes a degree, and a router
  // skipped because its far ends x, y are already linked sits in the
  // triangle x, n, y, which no later merge can break -- so this pass
  // makes the merges a restart-from-the-first-name loop would.  Each
  // collapsed router is recorded with the merge that hid it.
  LogicalTopology out;
  std::vector<char> collapsed(nk, 0);
  if (options.collapse_chains) {
    for (std::size_t s = 0; s < nk; ++s) {
      const std::int32_t n = kept_nodes[s];
      if (queried[s] || degree(s) != 2 || !index.is_router(n) ||
          index.node(n).internal_bw > 0)
        continue;
      const std::uint32_t* pair = &incident[offset[s]];
      const std::uint32_t i1 = std::min(pair[0], pair[1]);
      const std::uint32_t i2 = std::max(pair[0], pair[1]);
      const std::int32_t x = other(work[i1], n);
      const std::int32_t y = other(work[i2], n);
      // A link x--y already exists: keep both as physical (no
      // multigraph support) and skip this node.
      const std::size_t sx = slot_of(x), sy = slot_of(y);
      const auto first = incident.begin() + offset[sx];
      const auto last = incident.begin() + offset[sx + 1];
      if (std::any_of(first, last,
                      [&](std::uint32_t j) { return other(work[j], x) == y; }))
        continue;
      const auto merged = static_cast<std::uint32_t>(work.size());
      work.push_back(merge(work[i1], work[i2], n, x, y));
      merged_into[i1] = merged_into[i2] = merged;
      merged_into.push_back(merged);
      *std::find(first, last, i1) = merged;
      *std::find(incident.begin() + offset[sy],
                 incident.begin() + offset[sy + 1], i2) = merged;
      collapsed[s] = 1;
      out.hidden.push_back({n, merged});
    }
  }

  // 3. Assemble.  A node survives unless collapsed, or unqueried with no
  // link (keep_all's isolated nodes).
  out.nodes.reserve(nk);
  for (std::size_t s = 0; s < nk; ++s) {
    if (collapsed[s] || (degree(s) == 0 && !queried[s])) continue;
    const std::int32_t id = kept_nodes[s];
    out.nodes.push_back({id, index.node(id).internal_bw});
  }
  // Surviving links in working order (model links in model order, then
  // merged chains in the order they were made), compacted in place.
  std::vector<std::uint32_t> logical(work.size());
  std::uint32_t survivors = 0;
  for (std::uint32_t i = 0; i < work.size(); ++i) {
    if (merged_into[i] != i) continue;
    logical[i] = survivors;
    work[survivors++] = work[i];
  }
  work.resize(survivors);
  out.links = std::move(work);
  // A merge's parent comes after it, so one backward sweep resolves
  // every kept model link, and every merge that hid a router, to the
  // logical link it ended up in.
  for (std::size_t i = logical.size(); i-- > 0;)
    if (merged_into[i] != i) logical[i] = logical[merged_into[i]];
  for (LogicalTopology::Hidden& h : out.hidden) h.link = logical[h.link];
  out.model_links.reserve(kept.size());
  for (const KeptLink& k : kept) out.model_links.push_back(k.link);
  logical.resize(kept.size());
  out.logical_of = std::move(logical);
  return out;
}

NetworkGraph build_logical_graph(const NetworkModel& model,
                                 const std::vector<std::string>& nodes,
                                 const Timeframe& timeframe, Seconds now,
                                 const Predictor& predictor,
                                 const LogicalOptions& options) {
  const RoutingIndex& index = model.routing_index();
  std::vector<std::int32_t> ids;
  for (const std::string& n : nodes) {
    const std::int32_t id = index.id_of(n);
    if (id == RoutingIndex::kNoNode) model.node(n);  // throws NotFoundError
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return named_graph(
      build_logical_topology(model, ids, timeframe, now, predictor, options),
      index);
}

}  // namespace remos::core
