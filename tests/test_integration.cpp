// Cross-module integration tests: whole-pipeline scenarios that mirror
// the paper's experiments at reduced scale, plus end-to-end behavior
// under transport loss and multi-collector merging.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/apps.hpp"
#include "apps/harness.hpp"
#include "cluster/clustering.hpp"
#include "collector/benchmark_collector.hpp"
#include "collector/collector_set.hpp"
#include "core/remos_api.hpp"
#include "fx/runtime.hpp"
#include "netsim/traffic.hpp"
#include "util/error.hpp"

namespace remos {
namespace {

using apps::CmuHarness;
using core::Timeframe;

TEST(Integration, MiniTable2SelectionBeatsStaticChoice) {
  // The Table 2 mechanism end-to-end at small scale: under a blast, nodes
  // picked from live measurements run a real workload measurably faster
  // than a traffic-oblivious set.
  auto run = [](const std::vector<std::string>& nodes) {
    CmuHarness h;
    h.start(5.0);
    netsim::CbrTraffic blast(h.sim(), "m-6", "m-8", mbps(95), 120.0);
    h.sim().run_for(10.0);
    fx::AppModel app = apps::make_fft(512);
    return fx::FxRuntime(h.sim(), app, nodes).run().total;
  };

  std::vector<std::string> selected;
  {
    CmuHarness h;
    h.start(5.0);
    netsim::CbrTraffic blast(h.sim(), "m-6", "m-8", mbps(95), 120.0);
    h.sim().run_for(10.0);
    const auto g = h.modeler().get_graph(h.hosts(), Timeframe::history(8.0));
    const cluster::DistanceMatrix d(g, h.hosts());
    selected = cluster::greedy_cluster(d, "m-4", 4).nodes;
  }
  const double t_selected = run(selected);
  const double t_static = run({"m-4", "m-5", "m-6", "m-7"});
  EXPECT_GT(t_static, 1.5 * t_selected);
}

TEST(Integration, ModelerOverMergedCollectors) {
  CmuHarness h;
  h.start(8.0);
  collector::BenchmarkCollector probes(h.sim(), {"m-1", "m-8"});
  probes.discover();
  probes.poll();

  collector::CollectorSet set;
  set.add(h.collector());
  set.add(probes);
  const collector::NetworkModel merged = set.merged();
  core::Modeler modeler(merged);
  modeler.set_clock([&] { return h.sim().now(); });

  // The merged model contains BOTH the physical path and the benchmark
  // collector's logical pair link; with equal hop counts the physical
  // 3-hop route vs 1-hop logical link -- the logical link wins on hops.
  const auto g = modeler.get_graph({"m-1", "m-8"}, Timeframe::current());
  const auto path = g.route("m-1", "m-8");
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 1u);

  core::FlowQuery q;
  q.independent = core::FlowRequest{"m-1", "m-8", 0};
  const auto r = modeler.flow_info(q);
  EXPECT_TRUE(r.independent->routable);
  EXPECT_GT(r.independent->bandwidth.quartiles.median, mbps(80));
}

TEST(Integration, QueriesSurviveLossyManagementNetwork) {
  CmuHarness::Options o;
  o.snmp_loss = 0.2;
  CmuHarness h(o);
  h.start(20.0);
  netsim::CbrTraffic cbr(h.sim(), "m-6", "m-8", mbps(50));
  h.sim().run_for(20.0);
  const auto g = h.modeler().get_graph(h.hosts(), Timeframe::history(15.0));
  EXPECT_EQ(g.compute_nodes().size(), 8u);
  bool flipped = false;
  const auto* tw = g.find_link("timberline", "whiteface", &flipped);
  ASSERT_NE(tw, nullptr);
  const Measurement used = flipped ? tw->used_ba : tw->used_ab;
  EXPECT_NEAR(used.quartiles.median, mbps(50), mbps(3));
}

TEST(Integration, KeepAllOptionReturnsWholeNetwork) {
  CmuHarness h;
  h.start(4.0);
  core::LogicalOptions opts;
  opts.keep_all = true;
  opts.collapse_chains = false;
  const auto g = h.modeler().get_graph({"m-1"}, Timeframe::current(), opts);
  EXPECT_EQ(g.node_count(), 11u);
  EXPECT_EQ(g.link_count(), 11u);
}

TEST(Integration, SharingPolicyVisibleEndToEnd) {
  CmuHarness h;
  h.start(4.0);
  // Physical links report max-min fairness through the enterprise MIB.
  core::LogicalOptions raw;
  raw.collapse_chains = false;
  const auto g = h.modeler().get_graph({"m-4", "m-5"},
                                       Timeframe::current(), raw);
  for (const auto& l : g.links())
    EXPECT_EQ(l.sharing, SharingPolicy::kMaxMinFair);
  // A collapsed chain of uniform policy keeps it.
  const auto collapsed =
      h.modeler().get_graph({"m-4", "m-5"}, Timeframe::current());
  ASSERT_EQ(collapsed.link_count(), 1u);
  EXPECT_EQ(collapsed.links()[0].sharing, SharingPolicy::kMaxMinFair);
  EXPECT_NE(collapsed.to_string().find("max-min-fair"), std::string::npos);

  // Benchmark-collector pair links have no policy information.
  collector::BenchmarkCollector probes(h.sim(), {"m-1", "m-8"});
  probes.discover();
  probes.poll();
  core::Modeler probe_modeler(probes.model());
  const auto pg = probe_modeler.get_graph({"m-1", "m-8"},
                                          Timeframe::current());
  ASSERT_EQ(pg.link_count(), 1u);
  EXPECT_EQ(pg.links()[0].sharing, SharingPolicy::kUnknown);
}

TEST(Integration, AdaptiveAppEndToEndUnderChangingConditions) {
  // Start clean, inject a blast mid-run, expect at least one migration
  // and a final mapping that avoids the blast.
  CmuHarness h;
  h.start(6.0);
  fx::AppModel app;
  app.name = "mid-run";
  app.iterations = 10;
  fx::ComputePhase c;
  c.parallel_seconds = 8.0;
  fx::CommPhase k;
  k.pattern = fx::Pattern::kAllToAll;
  k.volume = 50e6;
  app.phases = {c, k};

  auto blast = std::make_unique<netsim::CbrTraffic>(
      h.sim(), "m-6", "m-8", mbps(95), 120.0, "late-blast");
  // Kill the blast's flow until iteration ~3 by... simpler: schedule its
  // creation later.
  blast.reset();
  std::unique_ptr<netsim::CbrTraffic> late;
  h.sim().schedule_in(12.0, [&] {
    late = std::make_unique<netsim::CbrTraffic>(h.sim(), "m-6", "m-8",
                                                mbps(95), 120.0, "late");
  });

  fx::AdaptationModule::Options opts;
  opts.timeframe = Timeframe::history(8.0);
  opts.compensate_own_traffic = true;
  fx::AdaptationModule adapt(h.modeler(), h.hosts(), "m-4", opts);
  fx::FxRuntime rt(h.sim(), app, {"m-4", "m-6", "m-8"});
  rt.set_adaptation(&adapt);
  const auto stats = rt.run();
  EXPECT_GE(stats.migrations, 1u);
  const auto& final_nodes = stats.mappings.back();
  EXPECT_EQ(std::count(final_nodes.begin(), final_nodes.end(), "m-6"), 0);
  EXPECT_EQ(std::count(final_nodes.begin(), final_nodes.end(), "m-8"), 0);
}

TEST(Integration, QueryCountAccounting) {
  CmuHarness h;
  h.start(4.0);
  const obs::Counter graphs =
      h.metrics().counter("remos_modeler_graph_queries_total");
  const obs::Counter flows =
      h.metrics().counter("remos_modeler_flow_queries_total");
  const std::uint64_t graphs_before = graphs.value();
  const std::uint64_t flows_before = flows.value();
  (void)h.modeler().get_graph({"m-1", "m-2"}, Timeframe::current());
  core::FlowQuery q;
  q.independent = core::FlowRequest{"m-1", "m-2", 0};
  (void)h.modeler().flow_info(q);
  // Each call counts once, as the kind of query it answers: flow_info's
  // own logical build is not a graph query.
  EXPECT_EQ(graphs.value(), graphs_before + 1);
  EXPECT_EQ(flows.value(), flows_before + 1);
}

}  // namespace
}  // namespace remos
