// Shortest-path routing: one kernel for every plane that routes.
//
// The simulator (RoutingTable), the collector (collector::RoutingIndex)
// and the Modeler's logical graphs (core::NetworkGraph) are thin views
// over RouteKernel, so the route a query predicts from a collector's
// model is the route the simulator forwards on.  The rule: fewest hops
// (an arc may weigh several), then lowest summed latency, then on an
// exact tie the predecessor that ranks first, then the lower link index.
// Every view ranks nodes by *name*, the only identity the simulator, the
// collector (SNMP sysName) and the Modeler share.  Only the source and
// forwarding nodes expand: hosts never forward.  Rather than all n^2
// paths, the kernel memoizes one row per source, built on first use.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netsim/topology.hpp"

namespace remos::netsim {

/// CSR shortest-path kernel over dense node ids 0..n-1.
class RouteKernel {
 public:
  static constexpr std::int32_t kNone = -1;

  /// One undirected link between two named nodes; `link` is the view's
  /// index for it, echoed in rows.
  struct Edge {
    std::string_view a, b;
    std::int32_t link;
    std::uint32_t hops;  // >= 1
    Seconds latency;
  };
  /// One direction of an edge, stored with the node it leaves.
  struct Arc {
    std::int32_t to, link;
    std::uint32_t hops;
    Seconds latency;
  };
  /// Per destination v: the predecessor on the route from the source and
  /// the link into v.  prev_node is kNone where v is unreachable and the
  /// source at the source; prev_link is kNone at both.
  struct Row {
    std::vector<std::int32_t> prev_node;
    std::vector<std::int32_t> prev_link;
  };

  /// `names[v]`: node v's unique name, which also ranks it for ties;
  /// `forwards[v]`: v relays traffic.  Throws InvalidArgument on a size
  /// mismatch, an unknown endpoint or a zero hop weight.
  RouteKernel(std::vector<std::string> names, std::vector<char> forwards,
              const std::vector<Edge>& edges);

  std::size_t node_count() const { return names_.size(); }
  /// Id of a node name, O(log n); kNone if unknown.
  std::int32_t id_of(std::string_view name) const;
  const std::string& name_of(std::int32_t v) const {
    return names_[static_cast<std::size_t>(v)];
  }
  bool forwards(std::int32_t v) const {
    return forwards_[static_cast<std::size_t>(v)] != 0;
  }
  std::span<const Arc> arcs(std::int32_t v) const;

  /// The row from `src`, searched on first use (hop-bucketed, O(nodes +
  /// arcs), no priority queue) and memoized.  Thread-safe.  Throws
  /// InvalidArgument if src is out of range.
  const Row& row(std::int32_t src) const;

 private:
  Row search(std::int32_t src) const;
  void lock() const {
    while (lock_.test_and_set(std::memory_order_acquire))
      while (lock_.test(std::memory_order_relaxed)) {
      }
  }
  void unlock() const { lock_.clear(std::memory_order_release); }

  std::vector<std::string> names_;
  std::vector<char> forwards_;
  std::vector<std::int32_t> by_name_;  // ids in name order
  std::vector<std::int32_t> rank_;     // id -> position in by_name_
  std::vector<std::uint32_t> offset_;  // CSR: node v's arcs start here
  std::vector<Arc> arcs_;
  std::uint32_t max_hops_ = 1;
  mutable std::atomic_flag lock_ = ATOMIC_FLAG_INIT;  // guards rows_
  mutable std::vector<std::unique_ptr<Row>> rows_;
};

/// A route from src to dst: the node sequence (src first, dst last) and
/// the link sequence (one shorter).  Empty links with nodes == {src} means
/// src == dst.
struct Path {
  std::vector<NodeId> nodes;
  std::vector<LinkId> links;

  std::size_t hops() const { return links.size(); }
};

/// The simulator's view: a RouteKernel over a Topology's enabled links,
/// unit hop weights, nodes ranked by name.
class RoutingTable {
 public:
  explicit RoutingTable(const Topology& topology);

  /// Routes over a partial network: links whose id maps to false in
  /// `link_enabled` are ignored (failure/maintenance scenarios).
  RoutingTable(const Topology& topology,
               const std::vector<bool>& link_enabled);

  /// Route from src to dst, read from the source's row in O(path
  /// length); throws NotFoundError if dst is unreachable.
  Path route(NodeId src, NodeId dst) const;

  /// True if dst is reachable from src; NotFoundError on a bad id.
  bool reachable(NodeId src, NodeId dst) const;

  /// Total one-way path latency (sum of link latencies).
  Seconds path_latency(NodeId src, NodeId dst) const;

  /// Minimum link capacity along the route (static bottleneck).
  BitsPerSec path_capacity(NodeId src, NodeId dst) const;

 private:
  const Topology* topology_;
  // By pointer: the simulator swaps in a new table when a link changes
  // state, and the kernel's lock cannot move.
  std::unique_ptr<const RouteKernel> kernel_;
};

}  // namespace remos::netsim
