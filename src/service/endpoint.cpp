#include "service/endpoint.hpp"

#include <exception>

namespace remos::service {

namespace {

std::chrono::nanoseconds since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - t0);
}

}  // namespace

ModelerEndpoint::ModelerEndpoint(const core::Modeler& modeler)
    : modeler_(&modeler) {}

GraphResponse ModelerEndpoint::get_graph(GraphQuery query) {
  const auto t0 = std::chrono::steady_clock::now();
  GraphResponse response;
  core::GraphResult result =
      modeler_->get_graph_result(query.nodes, query.timeframe, query.options);
  response.graph_status = result.status;
  response.unknown_nodes = std::move(result.unknown_nodes);
  if (result.status == obs::GraphStatus::kInvalid) {
    response.meta.status = QueryStatus::kError;
    response.meta.error = std::move(result.error);
  } else {
    // Unknown nodes stay a structured graph_status, same as the service.
    response.meta.status = QueryStatus::kAnswered;
    response.graph = std::move(result.graph);
  }
  response.meta.latency = since(t0);
  return response;
}

FlowInfoResponse ModelerEndpoint::flow_info(FlowInfoQuery query) {
  const auto t0 = std::chrono::steady_clock::now();
  FlowInfoResponse response;
  try {
    response.result = modeler_->flow_info(query.query);
    response.meta.status = QueryStatus::kAnswered;
  } catch (const std::exception& e) {
    response.meta.status = QueryStatus::kError;
    response.meta.error = e.what();
  }
  response.meta.latency = since(t0);
  return response;
}

FlowBatchResponse ModelerEndpoint::flow_info_batch(FlowBatchInfoQuery query) {
  const auto t0 = std::chrono::steady_clock::now();
  FlowBatchResponse response;
  try {
    core::FlowBatchResult result = modeler_->flow_info_batch(query.batch);
    response.results = std::move(result.results);
    response.errors = std::move(result.errors);
    response.meta.status = QueryStatus::kAnswered;
  } catch (const std::exception& e) {
    response.meta.status = QueryStatus::kError;
    response.meta.error = e.what();
  }
  response.meta.latency = since(t0);
  return response;
}

}  // namespace remos::service
