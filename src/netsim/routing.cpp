#include "netsim/routing.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "util/error.hpp"

namespace remos::netsim {

RouteKernel::RouteKernel(std::vector<std::string> names,
                         std::vector<char> forwards,
                         const std::vector<Edge>& edges)
    : names_(std::move(names)),
      forwards_(std::move(forwards)),
      by_name_(names_.size()),
      rank_(names_.size()),
      offset_(names_.size() + 1, 0),
      rows_(names_.size()) {
  const std::size_t n = names_.size();
  if (forwards_.size() != n) throw InvalidArgument("RouteKernel: sizes");
  std::iota(by_name_.begin(), by_name_.end(), 0);
  std::ranges::sort(by_name_, {},
                    [&](std::int32_t v) -> auto& { return name_of(v); });
  for (std::size_t i = 0; i < n; ++i)
    rank_[static_cast<std::size_t>(by_name_[i])] = static_cast<std::int32_t>(i);
  // CSR: both directions of every edge, grouped by origin, in link order.
  std::vector<std::pair<std::int32_t, Arc>> directed;
  for (const Edge& e : edges) {
    const std::int32_t a = id_of(e.a), b = id_of(e.b);
    if (a == kNone || b == kNone || e.hops == 0)
      throw InvalidArgument("RouteKernel: bad edge");
    directed.push_back({a, {b, e.link, e.hops, e.latency}});
    directed.push_back({b, {a, e.link, e.hops, e.latency}});
    max_hops_ = std::max(max_hops_, e.hops);
  }
  std::ranges::sort(directed, {}, [](const auto& d) {
    return std::pair(d.first, d.second.link);
  });
  for (const auto& [from, arc] : directed) {
    ++offset_[static_cast<std::size_t>(from) + 1];
    arcs_.push_back(arc);
  }
  std::partial_sum(offset_.begin(), offset_.end(), offset_.begin());
}

std::int32_t RouteKernel::id_of(std::string_view name) const {
  const auto it = std::ranges::lower_bound(
      by_name_, name, {}, [&](std::int32_t v) -> auto& { return name_of(v); });
  return it != by_name_.end() && name_of(*it) == name ? *it : kNone;
}

std::span<const RouteKernel::Arc> RouteKernel::arcs(std::int32_t v) const {
  const auto i = static_cast<std::size_t>(v);
  return {arcs_.data() + offset_[i], offset_[i + 1] - offset_[i]};
}

const RouteKernel::Row& RouteKernel::row(std::int32_t src) const {
  if (src < 0 || static_cast<std::size_t>(src) >= node_count())
    throw InvalidArgument("RouteKernel: source out of range");
  const auto s = static_cast<std::size_t>(src);
  lock();
  const Row* ready = rows_[s].get();
  unlock();
  if (ready) return *ready;
  // Search outside the lock; losing a race wastes one redundant search.
  auto built = std::make_unique<Row>(search(src));
  lock();
  if (!rows_[s]) rows_[s] = std::move(built);
  ready = rows_[s].get();
  unlock();
  return *ready;
}

RouteKernel::Row RouteKernel::search(std::int32_t src) const {
  // Per node: the best (hops, latency) so far and its predecessor's rank.
  struct Label {
    std::uint32_t hops = std::numeric_limits<std::uint32_t>::max();
    std::int32_t rank = 0;
    Seconds latency = 0;
  };
  const std::size_t n = node_count();
  Row row{std::vector<std::int32_t>(n, kNone),
          std::vector<std::int32_t>(n, kNone)};
  std::vector<Label> label(n);

  // Dial's bucket queue on hops: expanding hop d reaches d+1..d+max_hops_,
  // so a power of two above max_hops_ of rotating buckets holds every
  // pending node.  When bucket d drains, all its nodes' predecessors sat
  // in earlier buckets, so their labels are final.
  std::size_t mask = 1;
  while (mask < max_hops_) mask = 2 * mask + 1;
  std::vector<std::vector<std::int32_t>> buckets(mask + 1);
  for (auto& bucket : buckets) bucket.reserve(n);
  row.prev_node[static_cast<std::size_t>(src)] = src;
  label[static_cast<std::size_t>(src)].hops = 0;
  buckets[0].push_back(src);
  for (std::uint32_t d = 0, pending = 1; pending > 0; ++d) {
    std::vector<std::int32_t>& bucket = buckets[d & mask];
    pending -= static_cast<std::uint32_t>(bucket.size());
    for (const std::int32_t u : bucket) {
      const auto ui = static_cast<std::size_t>(u);
      if (label[ui].hops != d) continue;  // reached in fewer hops since
      if (u != src && !forwards_[ui]) continue;
      const Seconds latency_u = label[ui].latency;
      const std::int32_t rank_u = rank_[ui];
      for (const Arc& arc : arcs(u)) {
        const auto v = static_cast<std::size_t>(arc.to);
        Label& best = label[v];
        const std::uint32_t h = d + arc.hops;
        if (h > best.hops) continue;
        const Seconds latency = latency_u + arc.latency;
        if (h < best.hops) {
          buckets[h & mask].push_back(arc.to);
          ++pending;
        } else if (latency > best.latency ||
                   (latency == best.latency &&
                    (rank_u > best.rank ||
                     (rank_u == best.rank && arc.link >= row.prev_link[v])))) {
          continue;
        }
        best = {h, rank_u, latency};
        row.prev_node[v] = u;
        row.prev_link[v] = arc.link;
      }
    }
    bucket.clear();
  }
  return row;
}

namespace {

RouteKernel topology_kernel(const Topology& topology,
                            const std::vector<bool>& link_enabled) {
  if (link_enabled.size() != topology.link_count())
    throw InvalidArgument("RoutingTable: link_enabled size mismatch");
  std::vector<std::string> names;
  std::vector<char> forwards;
  for (const Node& node : topology.nodes()) {
    names.push_back(node.name);
    forwards.push_back(node.kind == NodeKind::kNetwork ? 1 : 0);
  }
  std::vector<RouteKernel::Edge> edges;
  for (const Link& l : topology.links())
    if (link_enabled[static_cast<std::size_t>(l.id)])
      edges.push_back(
          {topology.name_of(l.a), topology.name_of(l.b), l.id, 1, l.latency});
  return RouteKernel(std::move(names), std::move(forwards), edges);
}

}  // namespace

RoutingTable::RoutingTable(const Topology& topology)
    : RoutingTable(topology,
                   std::vector<bool>(topology.link_count(), true)) {}

RoutingTable::RoutingTable(const Topology& topology,
                           const std::vector<bool>& link_enabled)
    : topology_(&topology),
      kernel_(new RouteKernel(topology_kernel(topology, link_enabled))) {}

Path RoutingTable::route(NodeId src, NodeId dst) const {
  if (!reachable(src, dst))
    throw NotFoundError("no route from " + topology_->name_of(src) + " to " +
                        topology_->name_of(dst));
  const RouteKernel::Row& row = kernel_->row(src);
  Path p;
  for (NodeId cur = dst; cur != src;
       cur = row.prev_node[static_cast<std::size_t>(cur)]) {
    p.nodes.push_back(cur);
    p.links.push_back(row.prev_link[static_cast<std::size_t>(cur)]);
  }
  p.nodes.push_back(src);
  std::reverse(p.nodes.begin(), p.nodes.end());
  std::reverse(p.links.begin(), p.links.end());
  return p;
}

bool RoutingTable::reachable(NodeId src, NodeId dst) const {
  const std::size_t n = topology_->node_count();
  if (src < 0 || dst < 0 || static_cast<std::size_t>(src) >= n ||
      static_cast<std::size_t>(dst) >= n)
    throw NotFoundError("RoutingTable: node id out of range");
  return kernel_->row(src).prev_node[static_cast<std::size_t>(dst)] !=
         RouteKernel::kNone;
}

Seconds RoutingTable::path_latency(NodeId src, NodeId dst) const {
  const Path path = route(src, dst);
  // Summed dst first: another order can change the last bit.
  Seconds total = 0;
  for (auto l = path.links.rbegin(); l != path.links.rend(); ++l)
    total += topology_->link(*l).latency;
  return total;
}

BitsPerSec RoutingTable::path_capacity(NodeId src, NodeId dst) const {
  BitsPerSec cap = std::numeric_limits<BitsPerSec>::infinity();
  for (const LinkId l : route(src, dst).links)
    cap = std::min(cap, topology_->link(l).capacity);
  return cap;
}

}  // namespace remos::netsim
