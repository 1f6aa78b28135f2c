#include "core/graph.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/error.hpp"

namespace remos::core {

using netsim::RouteKernel;

Measurement availability(const Measurement& capacity,
                         const Measurement& used) {
  if (!used.known()) return capacity;
  Measurement out;
  const double cap = capacity.mean;  // capacity is exact in practice
  out.quartiles.min = std::max(0.0, cap - used.quartiles.max);
  out.quartiles.q1 = std::max(0.0, cap - used.quartiles.q3);
  out.quartiles.median = std::max(0.0, cap - used.quartiles.median);
  out.quartiles.q3 = std::max(0.0, cap - used.quartiles.q1);
  out.quartiles.max = std::max(0.0, cap - used.quartiles.min);
  out.mean = std::max(0.0, cap - used.mean);
  out.samples = used.samples;
  out.accuracy = std::min(capacity.accuracy, used.accuracy);
  return out;
}

Measurement GraphLink::available_ab() const {
  return availability(capacity, used_ab);
}

Measurement GraphLink::available_ba() const {
  return availability(capacity, used_ba);
}

Measurement GraphLink::available_from(const std::string& from) const {
  if (from == a) return available_ab();
  if (from == b) return available_ba();
  throw InvalidArgument("available_from: " + from + " not an endpoint");
}

GraphNode& NetworkGraph::add_node(GraphNode node) {
  if (node.name.empty()) throw InvalidArgument("add_node: empty name");
  auto [it, inserted] = nodes_.emplace(node.name, std::move(node));
  if (!inserted)
    throw InvalidArgument("add_node: duplicate node " + it->first);
  routes_.reset();
  return it->second;
}

GraphLink& NetworkGraph::add_link(GraphLink link) {
  if (!has_node(link.a) || !has_node(link.b))
    throw InvalidArgument("add_link: unknown endpoint");
  if (link.a == link.b) throw InvalidArgument("add_link: self-loop");
  if (find_link(link.a, link.b))
    throw InvalidArgument("add_link: duplicate link");
  links_.push_back(std::move(link));
  routes_.reset();
  return links_.back();
}

bool NetworkGraph::has_node(const std::string& name) const {
  return nodes_.contains(name);
}

const GraphNode& NetworkGraph::node(const std::string& name) const {
  const auto it = nodes_.find(name);
  if (it == nodes_.end())
    throw NotFoundError("NetworkGraph: unknown node " + name);
  return it->second;
}

const GraphLink* NetworkGraph::find_link(const std::string& a,
                                         const std::string& b,
                                         bool* flipped) const {
  for (const GraphLink& l : links_) {
    if (l.a == a && l.b == b) {
      if (flipped) *flipped = false;
      return &l;
    }
    if (l.a == b && l.b == a) {
      if (flipped) *flipped = true;
      return &l;
    }
  }
  return nullptr;
}

std::vector<std::string> NetworkGraph::neighbors(
    const std::string& name) const {
  std::vector<std::string> out;
  for (const GraphLink& l : links_) {
    if (l.a == name) out.push_back(l.b);
    if (l.b == name) out.push_back(l.a);
  }
  std::sort(out.begin(), out.end());
  return out;
}

const std::shared_ptr<const RouteKernel>& NetworkGraph::routes() const {
  if (routes_) return routes_;
  // A logical link weighs the physical hops it stands for, so a collapsed
  // chain is no shortcut.  Compute nodes never forward.
  std::vector<std::string> names;
  std::vector<char> forwards;
  for (const auto& [name, node] : nodes_) {
    names.push_back(name);
    forwards.push_back(node.is_compute ? 0 : 1);
  }
  std::vector<RouteKernel::Edge> edges;
  for (std::size_t i = 0; i < links_.size(); ++i)
    edges.push_back({links_[i].a, links_[i].b, static_cast<std::int32_t>(i),
                     static_cast<std::uint32_t>(1 + links_[i].abstracts.size()),
                     links_[i].latency.quartiles.median});
  routes_.reset(new RouteKernel(std::move(names), std::move(forwards), edges));
  return routes_;
}

std::optional<GraphPath> RouteTree::path_to(const std::string& dst) const {
  const std::int32_t d = routes_->id_of(dst);
  if (d == RouteKernel::kNone) return std::nullopt;
  const RouteKernel::Row& row = routes_->row(src_);
  if (row.prev_node[static_cast<std::size_t>(d)] == RouteKernel::kNone)
    return std::nullopt;
  GraphPath path;
  for (std::int32_t cur = d;;
       cur = row.prev_node[static_cast<std::size_t>(cur)]) {
    path.nodes.push_back(routes_->name_of(cur));
    if (cur == src_) break;
    path.link_indices.push_back(
        static_cast<std::size_t>(row.prev_link[static_cast<std::size_t>(cur)]));
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.link_indices.begin(), path.link_indices.end());
  return path;
}

RouteTree NetworkGraph::routes_from(const std::string& src) const {
  node(src);  // throws NotFoundError if unknown
  const std::shared_ptr<const RouteKernel>& kernel = routes();
  const std::int32_t s = kernel->id_of(src);
  kernel->row(s);  // search now, not on the first path_to
  return RouteTree(kernel, s);
}

std::optional<GraphPath> NetworkGraph::route(const std::string& src,
                                             const std::string& dst) const {
  node(dst);
  return routes_from(src).path_to(dst);
}

BitsPerSec NetworkGraph::bottleneck_available_on(
    const GraphPath& path) const {
  if (path.link_indices.empty()) return 0;
  BitsPerSec bottleneck = std::numeric_limits<BitsPerSec>::infinity();
  for (std::size_t i = 0; i < path.link_indices.size(); ++i) {
    const GraphLink& l = links_[path.link_indices[i]];
    const Measurement avail = l.available_from(path.nodes[i]);
    bottleneck = std::min(bottleneck, avail.quartiles.median);
  }
  return bottleneck;
}

Seconds NetworkGraph::path_latency_on(const GraphPath& path) const {
  Seconds total = 0;
  for (std::size_t li : path.link_indices)
    total += links_[li].latency.quartiles.median;
  return total;
}

BitsPerSec NetworkGraph::bottleneck_available(const std::string& src,
                                              const std::string& dst) const {
  const auto path = route(src, dst);
  if (!path) return 0;
  return bottleneck_available_on(*path);
}

Seconds NetworkGraph::path_latency(const std::string& src,
                                   const std::string& dst) const {
  const auto path = route(src, dst);
  if (!path) return std::numeric_limits<Seconds>::infinity();
  return path_latency_on(*path);
}

std::vector<std::string> NetworkGraph::compute_nodes() const {
  std::vector<std::string> out;
  for (const auto& [name, n] : nodes_)
    if (n.is_compute) out.push_back(name);
  return out;  // map iteration is already sorted
}

std::string NetworkGraph::to_string() const {
  std::ostringstream os;
  os << "graph: " << nodes_.size() << " nodes, " << links_.size()
     << " links\n";
  for (const auto& [name, n] : nodes_) {
    os << "  node " << name << (n.is_compute ? " [compute]" : " [network]");
    if (n.internal_bw.known())
      os << " internal_bw=" << to_mbps(n.internal_bw.quartiles.median)
         << "Mbps";
    if (n.has_host_info)
      os << " cpu=" << n.cpu_load << " mem=" << n.memory_mb << "MB";
    os << "\n";
  }
  for (const GraphLink& l : links_) {
    os << "  link " << l.a << " -- " << l.b
       << " cap=" << to_mbps(l.capacity.quartiles.median) << "Mbps"
       << " lat=" << l.latency.quartiles.median * 1e3 << "ms";
    if (l.used_ab.known())
      os << " used(ab)=" << to_mbps(l.used_ab.quartiles.median) << "Mbps"
         << " used(ba)=" << to_mbps(l.used_ba.quartiles.median) << "Mbps";
    if (l.sharing != SharingPolicy::kUnknown)
      os << " sharing=" << remos::to_string(l.sharing);
    if (!l.abstracts.empty()) {
      os << " abstracts={";
      for (std::size_t i = 0; i < l.abstracts.size(); ++i)
        os << (i ? "," : "") << l.abstracts[i];
      os << "}";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace remos::core
