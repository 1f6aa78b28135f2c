// Flow-based queries (paper §4.2).
//
// A flow is an application-level connection between a pair of compute
// nodes.  One query names up to three classes of flows:
//   fixed       -- each needs a specific bandwidth (admission question);
//   variable    -- share whatever remains in proportion to their
//                  requested values (3 : 4.5 : 9 -> 1 : 1.5 : 3);
//   independent -- lower priority; told what is left over afterwards.
// A single query may name many flows at once so Remos can account for the
// *internal* sharing between an application's own flows, which per-flow
// queries would miss.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/timeframe.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace remos::core {

struct FlowRequest {
  std::string src;
  std::string dst;
  /// Fixed flows: required bandwidth.  Variable flows: relative demand
  /// (only ratios matter).  Independent flows: ignored.
  BitsPerSec requested = 0;
};

struct FlowResult {
  FlowRequest request;
  /// Fixed flows: whether the full request fits (at the median estimate).
  bool satisfied = false;
  /// Bandwidth this flow can expect, as quartiles over the background-
  /// traffic scenarios implied by the timeframe.
  Measurement bandwidth;
  /// One-way path latency.
  Measurement latency;
  /// False when no route exists between the endpoints.
  bool routable = true;
};

/// EXTENSION (paper §4.5 lists multicast as an unimplemented limitation):
/// a one-to-many flow with a fixed bandwidth requirement.  The flow's
/// data crosses each link of its distribution tree once, regardless of
/// receiver count -- the defining economy of multicast.
struct MulticastRequest {
  std::string src;
  std::vector<std::string> dsts;
  BitsPerSec requested = 0;
};

struct MulticastResult {
  MulticastRequest request;
  bool satisfied = false;
  /// Rate deliverable to every receiver simultaneously.
  Measurement bandwidth;
  /// Latency to the farthest receiver.
  Measurement latency;
  bool routable = true;
};

/// remos_flow_info(fixed_flows, variable_flows, independent_flow,
/// timeframe) -- the paper's general flow query, extended with multicast.
struct FlowQuery {
  std::vector<FlowRequest> fixed;
  /// Admitted with (after) the fixed class, in order.
  std::vector<MulticastRequest> multicast;
  std::vector<FlowRequest> variable;
  std::optional<FlowRequest> independent;
  Timeframe timeframe = Timeframe::current();
};

struct FlowQueryResult {
  std::vector<FlowResult> fixed;
  std::vector<MulticastResult> multicast;
  std::vector<FlowResult> variable;
  std::optional<FlowResult> independent;

  /// True when every fixed (and multicast) flow fit in full.
  bool all_fixed_satisfied() const {
    for (const FlowResult& f : fixed)
      if (!f.satisfied) return false;
    for (const MulticastResult& m : multicast)
      if (!m.satisfied) return false;
    return true;
  }
};

/// N flow queries resolved against one snapshot in one call (the batch
/// form of the paper's §4 "simultaneous queries").
///
///   kShared      the sub-queries are co-scheduled: they are solved as
///                ONE combined FlowQuery (sub-query flow lists
///                concatenated in order), so the batch's flows share the
///                network with each other exactly as the paper's
///                simultaneous-query semantics prescribe.  Requires a
///                single timeframe across the batch and admits at most
///                one independent flow in total.
///   kIndependent each sub-query is an isolated what-if: it sees the
///                measured background but NOT the other sub-queries.
///                The batch makes N sequential flow_info calls against
///                the same snapshot, so its answers are theirs bit for
///                bit; a service admits it as one query.
struct FlowBatchQuery {
  enum class Mode { kShared, kIndependent };
  Mode mode = Mode::kIndependent;
  std::vector<FlowQuery> queries;
};

struct FlowBatchResult {
  /// Index-aligned with FlowBatchQuery::queries.
  std::vector<FlowQueryResult> results;
  /// Index-aligned per-sub-query failure detail (independent mode): a
  /// non-empty string marks a structurally malformed sub-query whose
  /// result slot is empty; the rest of the batch still answers.  Shared
  /// mode has no per-sub isolation -- a malformed sub-query fails the
  /// whole combined solve -- so there every entry is empty.
  std::vector<std::string> errors;

  bool all_ok() const {
    for (const std::string& e : errors)
      if (!e.empty()) return false;
    return true;
  }
};

}  // namespace remos::core
