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
#pragma once

#include <optional>
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

/// Builds the annotated logical graph for `nodes` at `now`.
/// Throws NotFoundError if a queried node is unknown to the model.
NetworkGraph build_logical_graph(const collector::NetworkModel& model,
                                 const std::vector<std::string>& nodes,
                                 const Timeframe& timeframe, Seconds now,
                                 const Predictor& predictor,
                                 const LogicalOptions& options);

/// The path a flow from `src` to `dst` takes through `graph`, built by
/// build_logical_graph from the model `index` belongs to: the model's
/// route -- the simulator's, by RouteKernel's rule -- projected onto the
/// graph.  nullopt if an endpoint is unknown or unreachable.
std::optional<GraphPath> logical_route(const collector::RoutingIndex& index,
                                       const NetworkGraph& graph,
                                       const std::string& src,
                                       const std::string& dst);

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
