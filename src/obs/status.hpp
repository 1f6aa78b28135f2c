// Shared status vocabulary for the whole stack.
//
// Before this header existed every subsystem hand-rolled its own outcome
// enum and its own label strings (service::QueryStatus, the collector's
// AgentHealth, the SNMP breaker's State), which meant three switch
// statements that could drift apart and three spellings of the same idea
// in logs and metrics.  The enums now live here, each with a to_string(),
// and the owning subsystems alias them (service::QueryStatus is
// obs::QueryStatus, and so on) so existing call sites keep compiling.
// Metric label values and flight-recorder events use exactly these
// strings, so an operator greps for one vocabulary everywhere.
#pragma once

namespace remos::obs {

/// Outcome of one service query, as seen by the caller.
enum class QueryStatus {
  kAnswered,    // served from a snapshot within the staleness budget
  kStale,       // served, but the freshest snapshot exceeded the budget
  kDegraded,    // brownout: last good cached answer, accuracy discounted
  kOverloaded,  // shed at admission: the bounded queue was full
  kExpired,     // the deadline passed while waiting for an execution slot
  kError,       // malformed query (structured; the service stays up)
};

/// Number of QueryStatus values (per-status metric arrays).
inline constexpr int kQueryStatusCount = 6;

/// Per-router agent health as seen by a collector.
enum class AgentHealth { kHealthy, kDegraded, kUnreachable };

/// Per-agent circuit-breaker state (closed admits, open fast-fails).
enum class BreakerState { kClosed, kOpen, kHalfOpen };

/// Outcome of a structured (non-throwing) topology query.
enum class GraphStatus {
  kOk,          // every queried node resolved
  kPartial,     // graph built over the known subset; some nodes unknown
  kUnresolved,  // no queried node is known to the model; graph is empty
  kInvalid,     // malformed query (empty node set, bad timeframe)
};

inline const char* to_string(QueryStatus status) {
  switch (status) {
    case QueryStatus::kAnswered: return "answered";
    case QueryStatus::kStale: return "stale";
    case QueryStatus::kDegraded: return "degraded";
    case QueryStatus::kOverloaded: return "overloaded";
    case QueryStatus::kExpired: return "expired";
    case QueryStatus::kError: return "error";
  }
  return "?";
}

inline const char* to_string(AgentHealth health) {
  switch (health) {
    case AgentHealth::kHealthy: return "healthy";
    case AgentHealth::kDegraded: return "degraded";
    case AgentHealth::kUnreachable: return "unreachable";
  }
  return "?";
}

inline const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

inline const char* to_string(GraphStatus status) {
  switch (status) {
    case GraphStatus::kOk: return "ok";
    case GraphStatus::kPartial: return "partial";
    case GraphStatus::kUnresolved: return "unresolved";
    case GraphStatus::kInvalid: return "invalid";
  }
  return "?";
}

}  // namespace remos::obs
