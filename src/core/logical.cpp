#include "core/logical.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string_view>

#include "util/error.hpp"

namespace remos::core {

namespace {

using collector::ModelLink;
using collector::ModelNode;
using collector::NetworkModel;
using collector::RoutingIndex;

Measurement exactish(double v) { return Measurement::exact(v); }

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
      return Measurement::from_samples({ab ? s.used_ab : s.used_ba});
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

std::optional<GraphPath> logical_route(const RoutingIndex& index,
                                       const NetworkGraph& graph,
                                       const std::string& src,
                                       const std::string& dst) {
  const std::int32_t s = index.id_of(src);
  std::int32_t cur = index.id_of(dst);
  if (s == RoutingIndex::kNoNode || cur == RoutingIndex::kNoNode)
    return std::nullopt;
  const RoutingIndex::Row& row = index.row_from(s);
  std::vector<std::string_view> route;  // dst back to src
  for (; cur != s; cur = row.prev_node[static_cast<std::size_t>(cur)]) {
    if (cur == RoutingIndex::kNoNode) return std::nullopt;  // unreachable
    route.push_back(index.name_of(cur));
  }
  route.push_back(src);
  std::reverse(route.begin(), route.end());
  return graph.project(route);
}

NetworkGraph build_logical_graph(const NetworkModel& model,
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

}  // namespace remos::core
