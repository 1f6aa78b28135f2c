// Ablation: distance matrices from topology queries vs flow queries.
//
// Paper §7.3: "the information to compute available bandwidth between
// pairs of nodes could have been obtained with flow queries also, but
// O(nodes^2) queries would have been needed, implying a much higher
// overhead which deteriorates rapidly for larger networks."  This bench
// quantifies that claim on synthetic two-level trees of growing size:
// one remos_get_graph + local graph arithmetic versus n^2 remos_flow_info
// calls, same resulting distance matrix.
#include <chrono>
#include <iostream>

#include "bench/bench_common.hpp"
#include "cluster/distance.hpp"
#include "collector/network_model.hpp"
#include "core/modeler.hpp"
#include "util/strings.hpp"

namespace {

using namespace remos;

/// hosts spread over sqrt(n) routers in a router ring.
collector::NetworkModel tree_model(std::size_t hosts) {
  collector::NetworkModel m;
  const std::size_t routers = std::max<std::size_t>(2, hosts / 4);
  for (std::size_t r = 0; r < routers; ++r)
    m.upsert_node(numbered("r", r), true);
  for (std::size_t r = 0; r < routers; ++r)
    m.upsert_link(numbered("r", r),
                  numbered("r", (r + 1) % routers), mbps(155),
                  millis(0.2));
  for (std::size_t h = 0; h < hosts; ++h) {
    const std::string name = numbered("h", h);
    m.upsert_node(name, false);
    m.upsert_link(name, numbered("r", h % routers), mbps(100),
                  millis(0.2));
  }
  return m;
}

std::vector<std::string> host_names(std::size_t hosts) {
  std::vector<std::string> out;
  for (std::size_t h = 0; h < hosts; ++h)
    out.push_back(numbered("h", h));
  return out;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  using bench::row;
  using bench::rule;
  double benchmark_guard = 0;  // defeats dead-code elimination

  std::cout << "Ablation: one topology query vs n^2 flow queries for a "
               "distance matrix\n(times are wall-clock milliseconds per "
               "full matrix)\n\n";
  const std::vector<int> w{7, 14, 14, 8};
  row({"hosts", "get_graph ms", "flow-query ms", "ratio"}, w);
  rule(w);

  for (const std::size_t n : {4u, 8u, 16u, 32u, 48u}) {
    const collector::NetworkModel model = tree_model(n);
    core::Modeler modeler(model);
    const auto hosts = host_names(n);

    // Best of several repetitions per approach (scheduler noise on this
    // scale dwarfs the measured work).
    constexpr int kReps = 5;
    double graph_ms = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const core::NetworkGraph g =
          modeler.get_graph(hosts, core::Timeframe::statics());
      const cluster::DistanceMatrix matrix(g, hosts);
      graph_ms = std::min(graph_ms, ms_since(t0));
      benchmark_guard += matrix.at(0, 1);
    }

    double flow_ms = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t1 = std::chrono::steady_clock::now();
      for (const std::string& a : hosts) {
        for (const std::string& b : hosts) {
          if (a == b) continue;
          core::FlowQuery q;
          q.independent = core::FlowRequest{a, b, 0};
          q.timeframe = core::Timeframe::statics();
          benchmark_guard +=
              modeler.flow_info(q).independent->bandwidth.quartiles.median;
        }
      }
      flow_ms = std::min(flow_ms, ms_since(t1));
    }

    row({std::to_string(n), fixed(graph_ms, 2), fixed(flow_ms, 2),
         fixed(flow_ms / std::max(graph_ms, 1e-6), 1) + "x"},
        w);
  }
  std::cout << "\nExpectation (paper): the flow-query approach "
               "deteriorates quadratically; the\ntopology-query approach "
               "is why Remos exposes the graph at all.\n";
  if (benchmark_guard < 0) std::cout << benchmark_guard;  // never true
  return 0;
}
