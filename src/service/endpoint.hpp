// The unified query surface: every way to ask Remos a question.
//
// Three callable surfaces answer the same three questions -- the local
// QueryService, the retrying RemosClient in front of it, and the
// replica-routing FailoverCoordinator -- and before this interface each
// grew its own signatures.  FlowInfoEndpoint extracts the shared shape:
//
//   get_graph(GraphQuery)            -> GraphResponse
//   flow_info(FlowInfoQuery)         -> FlowInfoResponse
//   flow_info_batch(FlowBatchInfoQuery) -> FlowBatchResponse
//
// so applications, examples and the fx adaptation layer program against
// one surface and pick the serving topology (in-process modeler, single
// service, client with retry budget, replicated plane) at wiring time.
//
// Every implementation keeps the serving guarantees: a structured
// response by the deadline, never an exception across the boundary.
// ModelerEndpoint (below) is the degenerate synchronous implementation
// over a bare core::Modeler for tools and tests that have no service.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/flows.hpp"
#include "core/graph.hpp"
#include "core/logical.hpp"
#include "core/modeler.hpp"
#include "obs/obs.hpp"
#include "service/tenant_admission.hpp"

namespace remos::service {

/// Outcome of one query, as seen by the caller (shared vocabulary; see
/// obs/status.hpp):
///   kAnswered    served from a snapshot within the staleness budget
///   kStale       served, but the freshest snapshot exceeded the budget
///   kDegraded    brownout: the tenant's slice was full, so the last good
///                cached answer is served with accuracy discounted
///   kOverloaded  shed at admission: the admission budget was full
///   kExpired     the deadline passed while the query waited for an
///                execution slot
///   kError       malformed query (structured; the service stays up)
using QueryStatus = obs::QueryStatus;

inline const char* to_string(QueryStatus status) {
  return obs::to_string(status);
}

struct GraphQuery {
  std::vector<std::string> nodes;
  core::Timeframe timeframe = core::Timeframe::current();
  core::LogicalOptions options;
  /// Wall-clock answer budget; service default when unset.
  std::optional<std::chrono::microseconds> deadline;
  /// Model-clock staleness budget; service SLO when unset.
  std::optional<Seconds> max_staleness;
  /// Collect a per-query span tree into ResponseMeta::trace (admission,
  /// snapshot pickup, route resolution, solve, ...).
  bool trace = false;
  /// Tenant id from QueryService::register_tenant; unregistered ids fall
  /// back to the default tenant.
  int tenant = TenantAdmission::kDefaultTenant;
};

struct FlowInfoQuery {
  core::FlowQuery query;
  std::optional<std::chrono::microseconds> deadline;
  std::optional<Seconds> max_staleness;
  /// Collect a per-query span tree into ResponseMeta::trace.
  bool trace = false;
  /// Tenant id from QueryService::register_tenant.
  int tenant = TenantAdmission::kDefaultTenant;
};

/// N flow queries against one snapshot in one round trip; the whole batch
/// is one admission unit and one max-min solve (see core::FlowBatchQuery
/// for the kShared / kIndependent sharing semantics).
struct FlowBatchInfoQuery {
  core::FlowBatchQuery batch;
  /// Wall-clock budget for the whole batch; service default when unset.
  std::optional<std::chrono::microseconds> deadline;
  std::optional<Seconds> max_staleness;
  /// Collect a per-batch span tree into ResponseMeta::trace.
  bool trace = false;
  /// Tenant id; the batch consumes ONE admission slot regardless of size
  /// (it is one unit of solver work).
  int tenant = TenantAdmission::kDefaultTenant;
};

struct ResponseMeta {
  QueryStatus status = QueryStatus::kError;
  /// Version of the snapshot that answered (0 when none was consulted).
  std::uint64_t snapshot_version = 0;
  /// Age of that snapshot on the model clock at answer time.
  Seconds snapshot_age = 0;
  /// Wall-clock time from submission to response, in nanoseconds (a
  /// fresh cache hit takes well under a microsecond).
  std::chrono::nanoseconds latency{0};
  std::string error;
  /// Span tree for this query; non-empty only when the query asked for
  /// tracing and was answered: the executed path's spans, or one span
  /// (`cache_hit` or `brownout`) for an answer from the result cache.
  obs::SpanTree trace;
  /// True when the payload came from the result cache (a fresh O(1) hit,
  /// or -- when status is kDegraded -- a brownout answer).
  bool from_cache = false;

  /// True when a payload was produced (kAnswered, kStale, or a brownout
  /// kDegraded -- the latter with accuracy explicitly discounted).
  bool ok() const {
    return status == QueryStatus::kAnswered ||
           status == QueryStatus::kStale ||
           status == QueryStatus::kDegraded;
  }
};

struct GraphResponse {
  ResponseMeta meta;
  core::NetworkGraph graph;  // valid when meta.ok()
  /// Structured topology outcome (core::GraphResult): a query naming
  /// unknown nodes is still kAnswered/kStale at the service level, with
  /// graph_status kPartial/kUnresolved and the names listed here.
  obs::GraphStatus graph_status = obs::GraphStatus::kOk;
  std::vector<std::string> unknown_nodes;
};

struct FlowInfoResponse {
  ResponseMeta meta;
  core::FlowQueryResult result;  // valid when meta.ok()
};

struct FlowBatchResponse {
  /// Batch-level outcome: admission, snapshot, deadline and solve status
  /// for the whole batch (one solve, one verdict).
  ResponseMeta meta;
  /// Index-aligned sub-query results; valid when meta.ok().
  std::vector<core::FlowQueryResult> results;
  /// Index-aligned per-sub-query errors (independent mode): a non-empty
  /// string marks a malformed sub-query; its result slot is empty while
  /// the rest of the batch still answered.
  std::vector<std::string> errors;
};

/// The one interface all Remos query surfaces implement.  Implementations
/// never throw across this boundary and always return by the query's
/// deadline; callers branch on ResponseMeta::status.
class FlowInfoEndpoint {
 public:
  virtual ~FlowInfoEndpoint() = default;

  /// remos_get_graph: the logical topology connecting the queried nodes.
  virtual GraphResponse get_graph(GraphQuery query) = 0;
  /// remos_flow_info: one simultaneous multi-class flow query.
  virtual FlowInfoResponse flow_info(FlowInfoQuery query) = 0;
  /// remos_flow_info_batch: N flow queries, one snapshot, one solve.
  virtual FlowBatchResponse flow_info_batch(FlowBatchInfoQuery query) = 0;
};

/// Synchronous in-process endpoint over a bare core::Modeler -- no
/// admission, no execution slots, no deadlines (the calling thread does
/// the solve).  Lets single-threaded tools, examples and tests program
/// against FlowInfoEndpoint without standing up a QueryService, and be
/// re-pointed at one later without a code change.
///
/// Status mapping: kAnswered on success, kError (with the exception
/// message) on a structurally malformed query.  snapshot_version is 0 --
/// there is no snapshot plane underneath.  Deadlines, staleness budgets
/// and tenant ids on the query are ignored.
class ModelerEndpoint : public FlowInfoEndpoint {
 public:
  /// The modeler must outlive the endpoint.
  explicit ModelerEndpoint(const core::Modeler& modeler);

  GraphResponse get_graph(GraphQuery query) override;
  FlowInfoResponse flow_info(FlowInfoQuery query) override;
  FlowBatchResponse flow_info_batch(FlowBatchInfoQuery query) override;

 private:
  const core::Modeler* modeler_;
};

}  // namespace remos::service
