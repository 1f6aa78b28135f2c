// The Remos query API in the paper's shape.
//
// The paper presents two entry points:
//
//   remos_get_graph(nodes, graph, timeframe)
//   remos_flow_info(fixed_flows, variable_flows, independent_flow,
//                   timeframe)
//
// These free functions mirror those signatures over a Modeler session
// (the paper's Modeler is "a library that can be linked with
// applications"; the session object carries the link to the collectors).
// The object-oriented Modeler interface underneath is the primary C++
// API; these wrappers exist so code written against the paper reads
// one-to-one.
//
// Facade table (every overload, one row each):
//
//   facade call                          forwards to                 notes
//   ---------------------------------    -------------------------   -----
//   remos_get_graph(s, nodes, tf)        Modeler::get_graph_result   structured; never throws for bad input
//   remos_flow_info(s, query)            Modeler::flow_info          full FlowQuery (fixed + multicast + variable + independent)
//   remos_flow_info(s, fx, var, ind, tf) Modeler::flow_info          assembles the FlowQuery; the paper's exact signature
//   remos_flow_info(s, fx, var, ind,     Modeler::flow_info          as above, carrying the paper's multicast flow class
//                   mcast, tf)
//   remos_flow_info_batch(s, batch)      Modeler::flow_info_batch    N queries, one snapshot, one shared solve (batch plane)
//
// The structured forms never throw for bad input: unknown nodes come
// back as GraphResult::unknown_nodes / FlowResult::routable == false,
// and malformed timeframes as GraphStatus::kInvalid -- one mistyped
// endpoint cannot abort a long-running session.  The flow_info forms
// still throw InvalidArgument for structurally malformed queries
// (src == dst, empty query, degenerate timeframe), as does
// remos_flow_info_batch for a malformed batch shape (empty batch,
// shared-mode timeframe mismatch, two independent flows).
#pragma once

#include "core/modeler.hpp"

namespace remos {

/// Structured form: returns the logical topology relevant to connecting
/// `nodes`, annotated for `timeframe`, with unknown nodes reported by
/// name instead of thrown.
core::GraphResult remos_get_graph(const core::Modeler& session,
                                  const std::vector<std::string>& nodes,
                                  const core::Timeframe& timeframe);

/// Full-query form: resolves an already-assembled FlowQuery (fixed,
/// variable, independent and multicast classes) against the session.
core::FlowQueryResult remos_flow_info(const core::Modeler& session,
                                      const core::FlowQuery& query);

/// Satisfies the fixed flows first, then the variable flows
/// simultaneously, and finally the independent flow.  The flow vectors
/// are filled in to the extent that the requests can be satisfied.
core::FlowQueryResult remos_flow_info(
    const core::Modeler& session, std::vector<core::FlowRequest> fixed_flows,
    std::vector<core::FlowRequest> variable_flows,
    std::optional<core::FlowRequest> independent_flow,
    const core::Timeframe& timeframe);

/// Multicast-carrying form: as above, with the paper's multicast flow
/// class admitted after the unicast fixed flows.
core::FlowQueryResult remos_flow_info(
    const core::Modeler& session, std::vector<core::FlowRequest> fixed_flows,
    std::vector<core::FlowRequest> variable_flows,
    std::optional<core::FlowRequest> independent_flow,
    std::vector<core::MulticastRequest> multicast_flows,
    const core::Timeframe& timeframe);

/// Batch form: N flow queries against one session state in one call --
/// co-scheduled (one combined max-min solve, the paper's §4 simultaneous
/// semantics across the whole batch) or independent what-ifs sharing the
/// session's routing work.  See core::FlowBatchQuery.
core::FlowBatchResult remos_flow_info_batch(const core::Modeler& session,
                                            const core::FlowBatchQuery& batch);

}  // namespace remos
