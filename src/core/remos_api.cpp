#include "core/remos_api.hpp"

namespace remos {

core::GraphResult remos_get_graph(const core::Modeler& session,
                                  const std::vector<std::string>& nodes,
                                  const core::Timeframe& timeframe) {
  return session.get_graph_result(nodes, timeframe);
}

core::FlowQueryResult remos_flow_info(const core::Modeler& session,
                                      const core::FlowQuery& query) {
  return session.flow_info(query);
}

core::FlowQueryResult remos_flow_info(
    const core::Modeler& session, std::vector<core::FlowRequest> fixed_flows,
    std::vector<core::FlowRequest> variable_flows,
    std::optional<core::FlowRequest> independent_flow,
    const core::Timeframe& timeframe) {
  return remos_flow_info(session, std::move(fixed_flows),
                         std::move(variable_flows),
                         std::move(independent_flow), {}, timeframe);
}

core::FlowQueryResult remos_flow_info(
    const core::Modeler& session, std::vector<core::FlowRequest> fixed_flows,
    std::vector<core::FlowRequest> variable_flows,
    std::optional<core::FlowRequest> independent_flow,
    std::vector<core::MulticastRequest> multicast_flows,
    const core::Timeframe& timeframe) {
  core::FlowQuery query;
  query.fixed = std::move(fixed_flows);
  query.variable = std::move(variable_flows);
  query.independent = std::move(independent_flow);
  query.multicast = std::move(multicast_flows);
  query.timeframe = timeframe;
  return session.flow_info(query);
}

core::FlowBatchResult remos_flow_info_batch(const core::Modeler& session,
                                            const core::FlowBatchQuery& batch) {
  return session.flow_info_batch(batch);
}

}  // namespace remos
