// Quickstart: bring up the simulated CMU testbed, let the SNMP collector
// discover and measure it, and ask Remos the paper's two questions --
// "what does my network look like?" (remos_get_graph) and "what will my
// flows get?" (remos_flow_info).
//
//   ./quickstart
#include <iostream>

#include "apps/harness.hpp"
#include "core/remos_api.hpp"
#include "netsim/traffic.hpp"

int main() {
  using namespace remos;

  // The full Figure-2 pipeline: simulator -> SNMP agents -> collector ->
  // modeler.  start() discovers the topology and begins polling.
  apps::CmuHarness harness;
  harness.start();
  std::cout << "discovered " << harness.collector().model().nodes().size()
            << " nodes from seed routers via SNMP\n\n";

  // Some competing traffic on the timberline->whiteface path.
  netsim::CbrTraffic cross(harness.sim(), "m-6", "m-8", mbps(60));
  harness.sim().run_for(20.0);

  // --- remos_get_graph: the logical topology between three hosts ---
  const core::GraphResult topo =
      remos_get_graph(harness.modeler(), {"m-1", "m-4", "m-8"},
                      core::Timeframe::history(15.0));
  std::cout << "logical topology for {m-1, m-4, m-8} over the last 15 s:\n"
            << topo.graph.to_string() << "\n";

  // --- remos_flow_info: a three-class flow query ---
  // A fixed 8 Mbps feed m-1 -> m-4, two variable flows from m-4 sharing
  // what remains 1:3, and an independent bulk mover m-4 -> m-8 that takes
  // the leftovers across the congested link.
  const auto result = remos_flow_info(
      harness.modeler(),
      /*fixed=*/{core::FlowRequest{"m-1", "m-4", mbps(8)}},
      /*variable=*/
      {core::FlowRequest{"m-4", "m-5", 1.0},
       core::FlowRequest{"m-4", "m-7", 3.0}},
      /*independent=*/core::FlowRequest{"m-4", "m-8", 0},
      core::Timeframe::history(15.0));

  auto show = [](const char* cls, const core::FlowResult& f) {
    std::cout << "  " << cls << " " << f.request.src << " -> "
              << f.request.dst << ": "
              << to_mbps(f.bandwidth.quartiles.median) << " Mbps median, "
              << "quartiles [" << to_mbps(f.bandwidth.quartiles.min) << ", "
              << to_mbps(f.bandwidth.quartiles.q1) << ", "
              << to_mbps(f.bandwidth.quartiles.median) << ", "
              << to_mbps(f.bandwidth.quartiles.q3) << ", "
              << to_mbps(f.bandwidth.quartiles.max) << "] Mbps, "
              << "latency " << f.latency.mean * 1e3 << " ms"
              << (f.satisfied ? "" : "  (NOT fully satisfiable)") << "\n";
  };
  std::cout << "flow query results:\n";
  show("fixed      ", result.fixed[0]);
  show("variable   ", result.variable[0]);
  show("variable   ", result.variable[1]);
  show("independent", *result.independent);

  std::cout << "\nall fixed flows satisfied: "
            << (result.all_fixed_satisfied() ? "yes" : "no") << "\n";

  // --- remos_flow_info_batch: N what-ifs, one snapshot, one call ---
  // Independent mode answers each sub-query with its own flow_info call
  // (none of them sees the others); the same batch can also go through
  // any service::FlowInfoEndpoint as flow_info_batch, where it takes one
  // admission slot.
  core::FlowBatchQuery batch;
  batch.mode = core::FlowBatchQuery::Mode::kIndependent;
  for (const char* dst : {"m-5", "m-7", "m-8"}) {
    core::FlowQuery what_if;
    what_if.variable.push_back(core::FlowRequest{"m-4", dst, 1.0});
    what_if.timeframe = core::Timeframe::history(15.0);
    batch.queries.push_back(std::move(what_if));
  }
  const core::FlowBatchResult batched =
      remos_flow_info_batch(harness.modeler(), batch);
  std::cout << "\nbatched what-ifs from m-4 (independent mode):\n";
  for (std::size_t i = 0; i < batched.results.size(); ++i)
    show("what-if    ", batched.results[i].variable[0]);
  return 0;
}
