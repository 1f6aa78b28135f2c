// The Remos Modeler (paper §5): the library an application links against.
//
// "It satisfies application requests based on the information provided by
// the Collector.  The primary tasks of the modeler are: generating a
// logical topology, associating appropriate static and dynamic information
// with each of the network components, and satisfying flow requests based
// on the logical topology."
//
// The Modeler holds no measurement state of its own.  It reads one
// NetworkModel, which must outlive it: a live collector's model
// (Modeler(collector.model()) sees every poll at query time), a merged
// CollectorSet view, or an immutable snapshot (service mode).  Queries
// are const and write nothing shared, so any number of threads may
// query Modelers over a model that nobody mutates -- the hot path of
// service::QueryService.  Over a live collector's model they stay
// single-threaded: a query concurrent with a poll would observe torn
// collector state.
#pragma once

#include <functional>
#include <memory>

#include "collector/network_model.hpp"
#include "core/flows.hpp"
#include "core/graph.hpp"
#include "core/logical.hpp"
#include "core/predictor.hpp"
#include "obs/obs.hpp"

namespace remos::core {

/// Structured outcome of a topology query (the non-throwing API).
/// Unknown endpoints no longer abort the query: the graph is built over
/// the nodes the model does know and the rest are reported by name, so
/// one mistyped host cannot kill a long-running session (mirrors
/// FlowResult::routable for flow queries).
struct GraphResult {
  obs::GraphStatus status = obs::GraphStatus::kOk;
  /// The annotated logical graph; meaningful for kOk and kPartial (and
  /// empty for kUnresolved / kInvalid).
  NetworkGraph graph;
  /// Queried nodes the model does not know, in query order.
  std::vector<std::string> unknown_nodes;
  /// Human-readable detail when status == kInvalid.
  std::string error;

  /// True when a usable graph was produced (kOk or kPartial).
  bool ok() const {
    return status == obs::GraphStatus::kOk ||
           status == obs::GraphStatus::kPartial;
  }
};

/// Pre-resolved modeler instrumentation.  Service mode creates a fresh
/// Modeler per query, so handles are resolved once by whoever owns the
/// registry (QueryService, CmuHarness) and shared by pointer -- a query
/// never touches the registry mutex.
struct ModelerObs {
  obs::Counter graph_queries;
  obs::Counter flow_queries;
  obs::Counter partial_graphs;    // graph answers with unknown nodes
  obs::Counter unroutable_flows;  // flow results with routable == false
  obs::Histogram solve_duration;  // max-min scenario sweep, seconds

  static ModelerObs resolve(const obs::Obs& o);
};

class Modeler {
 public:
  /// Serves queries from `model` (must outlive the Modeler).  All
  /// queries are const reads of it.
  explicit Modeler(const collector::NetworkModel& model);
  /// A temporary model (say `set.merged()`) would dangle: keep it in a
  /// variable first.
  explicit Modeler(collector::NetworkModel&&) = delete;

  /// Queries are windowed relative to "now"; by default that is the
  /// newest sample timestamp in the model.  Wire the simulator clock in
  /// with set_clock for live use (or the snapshot's publication-time
  /// model clock in service mode, so staleness decay keeps advancing).
  void set_clock(std::function<Seconds()> clock);

  /// Replaces the kFuture predictor (default: EWMA 0.3).
  void set_predictor(std::unique_ptr<Predictor> predictor);

  /// Shares pre-resolved metric handles (may be nullptr to unwire; the
  /// pointee must outlive the Modeler).  Queries stay lock-free.
  void set_obs(const ModelerObs* obs) { obs_ = obs; }

  /// Attaches a per-query trace builder (nullptr = untraced).  The
  /// builder is single-threaded; set it on the Modeler answering that
  /// one query (service mode creates a Modeler per query anyway).
  void set_trace(obs::TraceBuilder* trace) { trace_ = trace; }

  /// remos_get_graph: the logical topology relevant to `nodes`, annotated
  /// for `timeframe`.  Never throws past the API boundary for bad input:
  /// unknown nodes yield kPartial (graph over the known subset) or
  /// kUnresolved (no queried node known), and a malformed timeframe
  /// yields kInvalid with the validation message.
  GraphResult get_graph_result(const std::vector<std::string>& nodes,
                               const Timeframe& timeframe,
                               const LogicalOptions& options = {}) const;

  /// Deprecated throwing form, kept for source compatibility: forwards
  /// to get_graph_result and converts kInvalid back to InvalidArgument
  /// and unknown nodes back to NotFoundError.  New code should call
  /// get_graph_result.
  NetworkGraph get_graph(const std::vector<std::string>& nodes,
                         const Timeframe& timeframe,
                         const LogicalOptions& options = {}) const;

  /// remos_flow_info: resolves a simultaneous three-class flow query
  /// against the logical topology, honoring max-min sharing between the
  /// queried flows and the measured background traffic.
  ///
  /// A flow naming a host the model does not know comes back as a
  /// structured routable=false result -- not an exception -- so one
  /// mistyped endpoint cannot kill a long-running query session.
  /// Structurally malformed queries (src == dst, empty query, degenerate
  /// timeframe) still throw InvalidArgument.
  FlowQueryResult flow_info(const FlowQuery& query) const;

  /// remos_flow_info_batch: N flow queries against this one session in
  /// one call (see core::FlowBatchQuery for the two sharing modes).
  ///
  /// Shared mode solves the batch as one combined FlowQuery -- one
  /// staged max-min sweep for all sub-queries -- and scatters the
  /// results back per sub-query; it throws InvalidArgument when the
  /// batch mixes timeframes, names more than one independent flow, or a
  /// sub-query is structurally malformed (the combined solve has no
  /// per-sub isolation).
  ///
  /// Independent mode answers each sub-query with its own flow_info
  /// call, so each result is bit-for-bit the lone query's.  A malformed
  /// sub-query lands in FlowBatchResult::errors instead of failing the
  /// batch.
  ///
  /// An empty batch throws InvalidArgument.
  FlowBatchResult flow_info_batch(const FlowBatchQuery& batch) const;

 private:
  Seconds now(const collector::NetworkModel& m) const;

  const collector::NetworkModel& model_;
  std::function<Seconds()> clock_;
  std::unique_ptr<Predictor> predictor_ = make_default_predictor();
  const ModelerObs* obs_ = nullptr;      // shared, pre-resolved handles
  obs::TraceBuilder* trace_ = nullptr;   // per-query, single-threaded
};

}  // namespace remos::core
