// Logical-topology generation (paper §4.3).
//
// "The graph presented to the user is intended only to represent how the
// network behaves as seen by the user, and does not necessarily show the
// network's true physical topology."  Given the collector's model and the
// set of nodes a query names, this builder:
//   1. keeps only the subgraph relevant to connecting the queried nodes
//      (union of the routes between all ordered pairs);
//   2. annotates every element for the requested timeframe (static
//      capacities; current / windowed / predicted usage as quartile
//      Measurements);
//   3. collapses chains through unqueried degree-2 network nodes into
//      single logical links (min capacity, summed latency, element-wise
//      worst-case usage), recording the hidden equipment in
//      GraphLink::abstracts -- the paper's complex-network-as-one-link
//      abstraction.
//
// The build runs on RoutingIndex ids and returns an id-only
// LogicalTopology with the link table its one collapse pass produced, so
// flows route through it without name lookups (LogicalTopology::route).
// build_logical_graph adds the one naming pass that turns it into the
// NetworkGraph the API returns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "collector/network_model.hpp"
#include "core/graph.hpp"
#include "core/predictor.hpp"
#include "core/timeframe.hpp"

namespace remos::core {

struct LogicalOptions {
  /// Collapse degree-2 network chains into logical links.
  bool collapse_chains = true;
  /// Keep the entire known network instead of pruning to relevance
  /// (useful for whole-network dashboards).
  bool keep_all = false;
  /// Staleness half-life: usage-measurement accuracy is multiplied by
  /// 2^(-age / halflife), where age is how long ago a collector last
  /// confirmed the link.  Data from an unreachable router thus answers
  /// queries with honestly widened accuracy instead of an error (paper
  /// §4.4 "variation in the information is reported to the application").
  /// 0 disables decay.
  Seconds accuracy_halflife = 30.0;
};

/// A logical graph on ids, and the link table its build produced.  Ids
/// are the RoutingIndex ids of the model the graph was built from; no
/// name is attached (build_logical_graph does that).
struct LogicalTopology {
  /// One hop of a route through the graph: a logical link and whether
  /// the route crosses it from its `a` end.
  struct Hop {
    std::uint32_t link;  // index into links
    bool forward;
  };
  struct Node {
    std::int32_t id = 0;
    /// Aggregate forwarding capacity; 0 if the model reports none.
    BitsPerSec internal_bw = 0;
  };
  /// A kept model link, or a chain collapsed into one.
  struct Link {
    std::int32_t a = 0, b = 0;  // end ids
    BitsPerSec capacity = 0;
    Seconds latency = 0;
    Measurement used_ab, used_ba;
    SharingPolicy sharing = SharingPolicy::kUnknown;
  };
  /// A router collapsed into a link.
  struct Hidden {
    std::int32_t router = 0;
    std::uint32_t link = 0;  // index into links
  };

  /// The graph's nodes, ascending id (= name order).
  std::vector<Node> nodes;
  /// Kept model links in model order, then merged chains in the order
  /// they were made.
  std::vector<Link> links;
  /// The collapsed routers, ascending id.
  std::vector<Hidden> hidden;
  /// The model links the build kept, ascending, and the link each ended
  /// up in (itself, or the chain it was collapsed into).
  std::vector<std::uint32_t> model_links;
  std::vector<std::uint32_t> logical_of;

  /// The route src -> dst through the graph: the model's route (a walk
  /// of index.row_from(src)), each run of model links inside one logical
  /// link taken as one hop.  `index` must be the routing index of the
  /// model the graph was built from.  False if an endpoint is unknown
  /// (kNoNode), dst is unreachable or the route leaves the graph.
  bool route(const collector::RoutingIndex& index, std::int32_t src,
             std::int32_t dst, std::vector<Hop>& hops) const;

  /// The node a hop arrives at.
  std::int32_t far_end(const Hop& hop) const {
    const Link& l = links[hop.link];
    return hop.forward ? l.b : l.a;
  }
};

/// Builds the annotated logical graph for the queried `nodes` (ids in
/// model.routing_index(), ascending, no repeats, none kNoNode) at `now`.
/// Throws InvalidArgument if `nodes` is empty.
LogicalTopology build_logical_topology(const collector::NetworkModel& model,
                                       const std::vector<std::int32_t>& nodes,
                                       const Timeframe& timeframe,
                                       Seconds now, const Predictor& predictor,
                                       const LogicalOptions& options);

/// Builds the annotated logical graph for `nodes` at `now`: the
/// topology build, then one pass that names its nodes and links (graph
/// links in LogicalTopology::links order).  Throws NotFoundError if a
/// queried node is unknown to the model.
NetworkGraph build_logical_graph(const collector::NetworkModel& model,
                                 const std::vector<std::string>& nodes,
                                 const Timeframe& timeframe, Seconds now,
                                 const Predictor& predictor,
                                 const LogicalOptions& options);

/// Annotation helper shared with the flow solver: the "used bandwidth"
/// Measurement of one link direction for a timeframe.
///
/// kHistory windows are covered-span aware: windows longer than the raw
/// sample ring are answered from the history's rollup cascade (stitched
/// quartiles), and a window reaching beyond all retention reports the
/// effective covered span through `window_out` (when non-null) with the
/// Measurement's accuracy discounted by the coverage ratio -- a
/// long-horizon Timeframe::history query degrades honestly instead of
/// silently answering from the retained tail.
Measurement used_for_timeframe(const collector::LinkHistory& history,
                               const Timeframe& timeframe, Seconds now,
                               bool ab, const Predictor& predictor,
                               obs::WindowStats* window_out = nullptr);

}  // namespace remos::core
