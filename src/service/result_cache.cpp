#include "service/result_cache.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

namespace remos::service {
namespace {

void put(std::string& out, std::string_view text) { out += text; }
void put(std::string& out, char c) { out += c; }
/// Shortest round-trip form: distinct doubles never print alike, so two
/// different questions never share a key.
void put(std::string& out, double v) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Appends each part to the key.
template <typename... Parts>
void add(std::string& out, const Parts&... parts) {
  (put(out, parts), ...);
}

void append(std::string& out, const core::Timeframe& t) {
  add(out, "tf:", static_cast<char>('0' + static_cast<int>(t.kind)), ':',
      t.window, ':', t.horizon, ';');
}

void append(std::string& out, const core::FlowRequest& f) {
  add(out, f.src, '>', f.dst, '@', f.requested, ';');
}

void append(std::string& out, const core::MulticastRequest& m) {
  add(out, m.src, '>');
  for (const std::string& d : m.dsts) add(out, d, ',');
  add(out, '@', m.requested, ';');
}

void append(std::string& out, const core::FlowQuery& q) {
  add(out, "x:");
  for (const core::FlowRequest& f : q.fixed) append(out, f);
  add(out, "|m:");
  for (const core::MulticastRequest& m : q.multicast) append(out, m);
  add(out, "|v:");
  for (const core::FlowRequest& f : q.variable) append(out, f);
  add(out, "|i:");
  if (q.independent) append(out, *q.independent);
  add(out, '|');
  append(out, q.timeframe);
}

double clamped(double accuracy, double factor) {
  return std::clamp(accuracy * std::clamp(factor, 0.0, 1.0), 0.0, 1.0);
}

void discount(Measurement& m, double factor) {
  m.accuracy = clamped(m.accuracy, factor);
}

}  // namespace

std::string canonical_key(const GraphQuery& query) {
  std::vector<std::string_view> nodes(query.nodes.begin(), query.nodes.end());
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  std::string out = "g|";
  for (const std::string_view n : nodes) add(out, n, ',');
  add(out, '|');
  append(out, query.timeframe);
  add(out, "o:", query.options.collapse_chains ? '1' : '0', ':',
      query.options.keep_all ? '1' : '0', ':',
      query.options.accuracy_halflife);
  return out;
}

std::string canonical_key(const FlowInfoQuery& query) {
  std::string out = "f|";
  append(out, query.query);
  return out;
}

std::string canonical_key(const FlowBatchInfoQuery& query) {
  // Sub-query order is preserved: in shared mode the combined fixed-flow
  // admission order depends on it, and results are index-aligned either
  // way.
  std::string out = "b|";
  add(out, query.batch.mode == core::FlowBatchQuery::Mode::kShared ? 's'
                                                                  : 'i');
  for (const core::FlowQuery& q : query.batch.queries) {
    add(out, "|[");
    append(out, q);
    add(out, ']');
  }
  return out;
}

void discount_accuracy(GraphResponse& response, double factor) {
  // Capacities and latencies stay untouched: physical invariants do not
  // erode with age.  Usage and forwarding estimates do.
  for (core::GraphLink& link : response.graph.mutable_links()) {
    discount(link.used_ab, factor);
    discount(link.used_ba, factor);
  }
  for (auto& [name, node] : response.graph.mutable_nodes())
    discount(node.internal_bw, factor);
}

namespace {

void discount_result(core::FlowQueryResult& result, double factor) {
  auto each = [factor](core::FlowResult& r) {
    discount(r.bandwidth, factor);
    discount(r.latency, factor);
  };
  for (core::FlowResult& r : result.fixed) each(r);
  for (core::MulticastResult& m : result.multicast) {
    discount(m.bandwidth, factor);
    discount(m.latency, factor);
  }
  for (core::FlowResult& r : result.variable) each(r);
  if (result.independent) each(*result.independent);
}

}  // namespace

void discount_accuracy(FlowInfoResponse& response, double factor) {
  discount_result(response.result, factor);
}

void discount_accuracy(FlowBatchResponse& response, double factor) {
  for (core::FlowQueryResult& r : response.results)
    discount_result(r, factor);
}

}  // namespace remos::service
