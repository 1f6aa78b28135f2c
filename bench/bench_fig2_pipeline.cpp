// Figure 2 -- the Remos implementation architecture: applications ->
// Modeler -> cooperating Collectors -> SNMP / benchmarks.  This bench
// drives the whole pipeline: an SNMP collector covers the CMU testbed, a
// benchmark-probing collector covers endpoint pairs "through the cloud"
// (as the paper does for networks that do not answer SNMP), a
// CollectorSet merges them, and two application-level queries are
// answered from the merged model.  It also accounts the management
// overhead -- the paper's claim is that "the cost an application pays ...
// is low and directly related to the depth and frequency of its
// requests".
#include <iostream>

#include "apps/harness.hpp"
#include "bench/bench_common.hpp"
#include "collector/benchmark_collector.hpp"
#include "collector/collector_set.hpp"
#include "core/modeler.hpp"
#include "netsim/traffic.hpp"

int main() {
  using namespace remos;
  using bench::row;
  using bench::rule;

  apps::CmuHarness harness;  // Collector 1: SNMP, polling every 2 s
  harness.start(10.0);
  netsim::CbrTraffic cross(harness.sim(), "m-6", "m-8", mbps(50));

  // Collector 2: active benchmark probes over three endpoints.
  collector::BenchmarkCollector probes(harness.sim(),
                                       {"m-1", "m-4", "m-8"});
  probes.discover();
  for (int round = 0; round < 5; ++round) {
    harness.sim().run_for(4.0);
    probes.poll();
  }

  collector::CollectorSet set;
  set.add(harness.collector());
  set.add(probes);
  const collector::NetworkModel merged = set.merged();
  core::Modeler modeler(merged);
  modeler.set_clock([&] { return harness.sim().now(); });

  std::cout << "Figure 2: two cooperating collectors feeding one modeler\n\n";
  const std::vector<int> w{26, 14, 14};
  row({"", "snmp", "benchmark"}, w);
  rule(w);
  row({"nodes discovered",
       std::to_string(harness.collector().model().nodes().size()),
       std::to_string(probes.model().nodes().size())},
      w);
  row({"links modeled",
       std::to_string(harness.collector().model().links().size()),
       std::to_string(probes.model().links().size())},
      w);
  row({"poll rounds",
       std::to_string(harness.collector().polls_completed()), "5"}, w);
  row({"probe cost (sim s/round)", "-",
       fixed(probes.last_poll_duration(), 3)},
      w);
  std::cout << "\nmerged model: " << merged.nodes().size() << " nodes, "
            << merged.links().size()
            << " links (physical + logical pair links)\n";

  // Application 1: topology query through the merged view.
  const core::NetworkGraph g = modeler.get_graph(
      {"m-1", "m-6", "m-8"}, core::Timeframe::history(15.0));
  std::cout << "\napplication 1, remos_get_graph({m-1, m-6, m-8}):\n"
            << g.to_string();

  // Application 2: flow query crossing the measured hot link.
  core::FlowQuery q;
  q.independent = core::FlowRequest{"m-4", "m-8", 0};
  q.timeframe = core::Timeframe::history(15.0);
  const auto r = modeler.flow_info(q);
  std::cout << "\napplication 2, remos_flow_info(independent m-4 -> m-8): "
            << to_mbps(r.independent->bandwidth.quartiles.median)
            << " Mbps median (50 Mbps of the trunk is taken)\n";

  // Management overhead accounting.
  const auto& t = harness.transport();
  std::cout << "\nmanagement overhead so far: " << t.datagrams_sent()
            << " datagrams, " << t.bytes_sent() << " bytes ("
            << fixed(static_cast<double>(t.bytes_sent()) * 8.0 /
                         harness.sim().now() / 1e3,
                     1)
            << " kbit/s average against 100 Mbps links)\n";
  return 0;
}
