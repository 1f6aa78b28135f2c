#include <gtest/gtest.h>

#include "apps/harness.hpp"
#include "collector/benchmark_collector.hpp"
#include "collector/collector_set.hpp"
#include "collector/snapshot_codec.hpp"
#include "collector/snmp_collector.hpp"
#include "core/logical.hpp"
#include "netsim/traffic.hpp"
#include "util/error.hpp"

namespace remos::collector {
namespace {

using apps::CmuHarness;

/// h1 - r1 - {r2, r3} - r4 - h2: two routes equal in hops and latency,
/// and the predecessor whose name sorts first wins the tie, so r2 wins
/// while r1-r2 is up.
NetworkModel diamond() {
  NetworkModel m;
  for (const char* r : {"r1", "r2", "r3", "r4"}) m.upsert_node(r, true);
  m.upsert_node("h1", false);
  m.upsert_node("h2", false);
  const std::pair<const char*, const char*> links[] = {
      {"h1", "r1"}, {"r1", "r2"}, {"r1", "r3"},
      {"r2", "r4"}, {"r3", "r4"}, {"r4", "h2"}};
  for (const auto& [a, b] : links) m.upsert_link(a, b, mbps(100), millis(1));
  return m;
}

/// The route from `a` to `b` through the model's routing index, as node
/// names from a to b; empty if b is unreachable.
std::vector<std::string> route(const NetworkModel& m, const std::string& a,
                               const std::string& b) {
  const RoutingIndex& index = m.routing_index();
  const RoutingIndex::Row& row = index.row_from(index.id_of(a));
  std::vector<std::string> path;
  std::int32_t cur = index.id_of(b);
  if (row.prev_node[static_cast<std::size_t>(cur)] == RoutingIndex::kNoNode)
    return path;
  for (; cur != index.id_of(a);
       cur = row.prev_node[static_cast<std::size_t>(cur)])
    path.insert(path.begin(), index.name_of(cur));
  path.insert(path.begin(), a);
  return path;
}

/// Whether the h1-h2 logical graph (chains kept) passes through `node`.
bool graph_uses(const NetworkModel& m, const std::string& node) {
  core::LogicalOptions options;
  options.collapse_chains = false;
  return core::build_logical_graph(m, {"h1", "h2"},
                                   core::Timeframe::statics(), 0,
                                   core::LastValuePredictor{}, options)
      .has_node(node);
}

/// "" if the routing index's by-id tables describe `m` as it is now:
/// each id's ModelNode is the model's node of that name, and each model
/// link's `a`-end id is its `a` end's id.  Otherwise the first mismatch.
std::string tables_mismatch(const NetworkModel& m) {
  const RoutingIndex& index = m.routing_index();
  if (index.node_count() != m.nodes().size()) return "node count";
  for (std::int32_t id = 0; id < static_cast<std::int32_t>(index.node_count());
       ++id) {
    const ModelNode& node = index.node(id);
    if (&node != &m.node(index.name_of(id)) ||
        node.is_router() != index.is_router(id))
      return "node " + index.name_of(id);
  }
  for (std::size_t li = 0; li < m.links().size(); ++li)
    if (index.link_a(li) != index.id_of(m.links()[li].a))
      return "link " + m.links()[li].a + "--" + m.links()[li].b;
  return "";
}

TEST(NetworkModel, NodeAndLinkBasics) {
  NetworkModel m;
  m.upsert_node("r1", true);
  m.upsert_node("h1", false);
  EXPECT_TRUE(m.has_node("r1"));
  EXPECT_TRUE(m.node("r1").is_router());
  EXPECT_FALSE(m.node("h1").is_router());
  EXPECT_THROW(m.node("zz"), NotFoundError);

  ModelLink& l = m.upsert_link("r1", "h1", mbps(100), millis(1));
  EXPECT_EQ(l.capacity, mbps(100));
  // Re-upsert in either orientation returns the same link.
  EXPECT_EQ(&m.upsert_link("h1", "r1", 0, 0), &l);
  EXPECT_EQ(m.links().size(), 1u);
  bool flipped = false;
  EXPECT_EQ(m.find_link("h1", "r1", &flipped), &l);
  EXPECT_TRUE(flipped);
  EXPECT_EQ(m.find_link("h1", "zz"), nullptr);
  EXPECT_THROW(m.upsert_link("r1", "r1", 1, 0), InvalidArgument);
  EXPECT_THROW(m.upsert_link("r1", "zz", 1, 0), InvalidArgument);
}

TEST(NetworkModel, RouterKnowledgeDominates) {
  NetworkModel m;
  m.upsert_node("x", false);
  m.upsert_node("x", true);
  EXPECT_TRUE(m.node("x").is_router());
  m.upsert_node("x", false);  // cannot demote
  EXPECT_TRUE(m.node("x").is_router());
}

TEST(NetworkModel, RoutingIndexFollowsStructuralWrites) {
  const std::vector<std::string> via_r2{"h1", "r1", "r2", "r4", "h2"};
  const std::vector<std::string> via_r3{"h1", "r1", "r3", "r4", "h2"};
  NetworkModel m = diamond();
  ASSERT_EQ(route(m, "h1", "h2"), via_r2);
  ASSERT_TRUE(graph_uses(m, "r2"));
  ASSERT_FALSE(graph_uses(m, "r3"));
  EXPECT_EQ(tables_mismatch(m), "");

  // The setter takes the link down and brings it back.
  m.set_link_up(*m.find_link("r1", "r2"), false);
  EXPECT_EQ(route(m, "h1", "h2"), via_r3);
  EXPECT_FALSE(graph_uses(m, "r2"));
  EXPECT_TRUE(graph_uses(m, "r3"));
  EXPECT_EQ(tables_mismatch(m), "");
  m.set_link_up(*m.find_link("r1", "r2"), true);
  EXPECT_EQ(route(m, "h1", "h2"), via_r2);
  EXPECT_TRUE(graph_uses(m, "r2"));

  // merge_from adopts another collector's view of the link.
  NetworkModel down = diamond();
  down.set_link_up(*down.find_link("r1", "r2"), false);
  m.merge_from(down);
  EXPECT_EQ(route(m, "h1", "h2"), via_r3);
  EXPECT_FALSE(graph_uses(m, "r2"));
  m.merge_from(diamond());
  EXPECT_EQ(route(m, "h1", "h2"), via_r2);
  EXPECT_TRUE(graph_uses(m, "r2"));
  EXPECT_EQ(tables_mismatch(m), "");

  // A replication delta flips the flag on a replica.
  const NetworkModel up = diamond();
  apply_delta(m, decode_frame(encode_delta(up, 1, down, 2, 0.0)));
  EXPECT_EQ(route(m, "h1", "h2"), via_r3);
  EXPECT_FALSE(graph_uses(m, "r2"));
  apply_delta(m, decode_frame(encode_delta(down, 2, up, 3, 0.0)));
  EXPECT_EQ(route(m, "h1", "h2"), via_r2);
  EXPECT_TRUE(graph_uses(m, "r2"));
  EXPECT_EQ(tables_mismatch(m), "");

  // Promoting a host lets it forward: h3 hangs off h1 only.
  m.upsert_node("h3", false);
  m.upsert_link("h1", "h3", mbps(100), millis(1));
  EXPECT_TRUE(route(m, "h2", "h3").empty());
  EXPECT_EQ(tables_mismatch(m), "");
  m.upsert_node("h1", true);
  EXPECT_EQ(route(m, "h2", "h3"),
            (std::vector<std::string>{"h2", "r4", "r2", "r1", "h1", "h3"}));
  EXPECT_TRUE(m.routing_index().is_router(m.routing_index().id_of("h1")));
  EXPECT_EQ(tables_mismatch(m), "");

  // Removing links and nodes shifts the link table and renumbers ids: a
  // node named before every other ("a0") moves every id up by one.
  m.upsert_node("a0", false);
  m.upsert_link("a0", "r4", mbps(100), millis(1));
  EXPECT_EQ(tables_mismatch(m), "");
  ASSERT_TRUE(m.remove_link("r1", "r2"));
  EXPECT_EQ(route(m, "h1", "h2"), via_r3);
  EXPECT_EQ(tables_mismatch(m), "");
  ASSERT_TRUE(m.remove_node("a0"));
  EXPECT_EQ(tables_mismatch(m), "");
  m.upsert_link("r2", "r1", mbps(100), millis(1));  // back, reversed
  EXPECT_EQ(route(m, "h1", "h2"), via_r2);
  EXPECT_EQ(tables_mismatch(m), "");

  // Measurement writes, and re-asserting a link's current state as every
  // poll does, keep the cached index; the node table reads them live.
  const RoutingIndex* cached = &m.routing_index();
  ModelLink& l = *m.find_link("r1", "r2");
  l.history.record(Sample{1.0, mbps(10), mbps(20)});
  l.last_update = 1.0;
  m.set_link_up(l, true);
  m.node("r1").internal_bw = mbps(500);
  EXPECT_EQ(&m.routing_index(), cached);
  EXPECT_EQ(cached->node(cached->id_of("r1")).internal_bw, mbps(500));
  EXPECT_EQ(tables_mismatch(m), "");
}

TEST(LinkHistory, WindowingSelectsSamples) {
  LinkHistory h;
  for (int i = 1; i <= 10; ++i)
    h.record(Sample{static_cast<Seconds>(i), i * 1.0, i * 2.0});
  // Window (5, 10]: samples at t=6..10.
  const auto ab = h.used_in_window(10.0, 5.0, true);
  EXPECT_EQ(ab.size(), 5u);
  EXPECT_EQ(ab.front(), 6.0);
  EXPECT_EQ(ab.back(), 10.0);
  // window <= 0: everything.
  EXPECT_EQ(h.used_in_window(10.0, 0, false).size(), 10u);
  // Future samples (beyond now) excluded.
  EXPECT_EQ(h.used_in_window(5.0, 0, true).size(), 5u);
}

TEST(NetworkModel, MergeAdoptsNewerSamplesOnly) {
  NetworkModel a, b;
  a.upsert_node("x", true);
  a.upsert_node("y", true);
  b.upsert_node("x", true);
  b.upsert_node("y", true);
  ModelLink& la = a.upsert_link("x", "y", mbps(10), 0);
  la.history.record(Sample{1.0, 100, 200});
  la.history.record(Sample{2.0, 110, 210});
  // b holds the same link flipped, with one older + one newer sample.
  ModelLink& lb = b.upsert_link("y", "x", mbps(10), 0);
  lb.history.record(Sample{1.5, 999, 888});   // older than a's newest: skip
  lb.history.record(Sample{3.0, 333, 444});   // newer: adopt (flipped)
  a.merge_from(b);
  ASSERT_EQ(la.history.size(), 3u);
  EXPECT_EQ(la.history.latest().at, 3.0);
  EXPECT_EQ(la.history.latest().used_ab, 444);  // direction un-flipped
  EXPECT_EQ(la.history.latest().used_ba, 333);
}

class SnmpCollectorOnTestbed : public ::testing::Test {
 protected:
  SnmpCollectorOnTestbed() : harness_(make_options()) {}
  static CmuHarness::Options make_options() {
    CmuHarness::Options o;
    o.poll_period = 2.0;
    return o;
  }
  CmuHarness harness_;
};

TEST_F(SnmpCollectorOnTestbed, DiscoversFullTopologyFromOneSeed) {
  // Seeding only aspen must reach the whole triangle transitively.
  SnmpCollector solo(harness_.transport(), {"aspen"});
  solo.discover();
  const NetworkModel& m = solo.model();
  EXPECT_EQ(m.nodes().size(), 11u);
  EXPECT_EQ(m.links().size(), 11u);
  EXPECT_TRUE(m.node("whiteface").is_router());
  EXPECT_FALSE(m.node("m-8").is_router());
  EXPECT_NE(m.find_link("timberline", "whiteface"), nullptr);
  EXPECT_NE(m.find_link("m-6", "timberline"), nullptr);
  for (const ModelLink& l : m.links()) {
    EXPECT_EQ(l.capacity, mbps(100));
    EXPECT_GT(l.latency, 0);
  }
}

TEST_F(SnmpCollectorOnTestbed,
       ImplausibleDeltasEqualTheirSeriesWiredAndUnwired) {
  obs::MetricsRegistry registry;
  snmp::FaultInjector& fx = harness_.fault_injector();
  SnmpCollector solo(harness_.transport(), {"aspen"});
  solo.discover();
  harness_.sim().run_for(5.0);
  solo.poll();  // arms every interface's counter baseline

  // A counter reset re-bases aspen's uptime below the baseline, so the
  // next poll discards each of aspen's deltas.  Unwired, the collector
  // counts them in a registry of its own.
  fx.counter_reset(snmp::agent_address("aspen"), 6.0);
  harness_.sim().run_for(2.0);
  solo.poll();
  const std::uint64_t unwired = solo.implausible_deltas();
  EXPECT_GE(unwired, 1u);
  harness_.sim().run_for(2.0);
  solo.poll();  // re-armed: a clean poll
  EXPECT_EQ(solo.implausible_deltas(), unwired);

  // Wired, implausible_deltas() reads the deployment's series, which
  // counts from the wiring on.
  solo.set_obs(obs::Obs{&registry, nullptr});
  fx.counter_reset(snmp::agent_address("aspen"), 10.0);
  harness_.sim().run_for(2.0);
  solo.poll();
  const obs::Counter series =
      registry.counter("remos_collector_implausible_deltas_total");
  EXPECT_GE(series.value(), 1u);
  EXPECT_EQ(solo.implausible_deltas(), series.value());
}

TEST_F(SnmpCollectorOnTestbed, HostInfoReadThroughHostAgents) {
  harness_.sim().set_cpu_load(harness_.sim().topology().id_of("m-3"), 0.5);
  harness_.host_stats("m-3").memory_mb = 1024;
  harness_.collector().discover();
  const ModelNode& n = harness_.collector().model().node("m-3");
  ASSERT_TRUE(n.has_host_info);
  EXPECT_DOUBLE_EQ(n.cpu_load, 0.5);
  EXPECT_EQ(n.memory_mb, 1024u);
}

TEST_F(SnmpCollectorOnTestbed, PollMeasuresDirectionalUtilization) {
  harness_.start(0.1);
  netsim::CbrTraffic cbr(harness_.sim(), "m-6", "m-8", mbps(40));
  harness_.sim().run_for(20.0);

  const NetworkModel& m = harness_.collector().model();
  bool flipped = false;
  const ModelLink* tw = m.find_link("timberline", "whiteface", &flipped);
  ASSERT_NE(tw, nullptr);
  ASSERT_FALSE(tw->history.empty());
  const Sample& s = tw->history.latest();
  const double toward_whiteface = flipped ? s.used_ba : s.used_ab;
  const double toward_timberline = flipped ? s.used_ab : s.used_ba;
  EXPECT_NEAR(toward_whiteface, mbps(40), mbps(1));
  EXPECT_NEAR(toward_timberline, 0.0, mbps(1));

  // The unrelated aspen side stays quiet.
  const ModelLink* at = m.find_link("aspen", "timberline");
  ASSERT_NE(at, nullptr);
  ASSERT_FALSE(at->history.empty());
  EXPECT_NEAR(at->history.latest().used_ab, 0.0, mbps(1));
}

TEST_F(SnmpCollectorOnTestbed, SurvivesCounterWrap) {
  harness_.start(0.1);
  // 95 Mbps wraps ifOutOctets (2^32 B) every ~361 s; run long enough to
  // wrap several times and verify no garbage samples appear.
  netsim::CbrTraffic cbr(harness_.sim(), "m-1", "m-7", mbps(95));
  harness_.sim().run_for(1200.0);
  const NetworkModel& m = harness_.collector().model();
  const ModelLink* link = m.find_link("m-1", "aspen");
  ASSERT_NE(link, nullptr);
  const auto rates = link->history.used_in_window(
      harness_.sim().now(), 600.0, link->a == "m-1");
  ASSERT_GT(rates.size(), 100u);
  for (double r : rates) EXPECT_NEAR(r, mbps(95), mbps(2));
}

TEST_F(SnmpCollectorOnTestbed, OnOffTrafficYieldsBimodalHistory) {
  harness_.start(0.1);
  netsim::OnOffTraffic::Config cfg;
  cfg.rate = mbps(60);
  cfg.mean_on = 6.0;
  cfg.mean_off = 6.0;
  cfg.seed = 11;
  netsim::OnOffTraffic gen(harness_.sim(),
                           harness_.sim().topology().id_of("m-4"),
                           harness_.sim().topology().id_of("m-5"), cfg);
  harness_.sim().run_for(300.0);
  const ModelLink* link =
      harness_.collector().model().find_link("m-4", "timberline");
  ASSERT_NE(link, nullptr);
  const Measurement m = link->history.used_measurement(
      harness_.sim().now(), 300.0, link->a == "m-4");
  // Bimodal: near 0 and near 60 Mbps; quartile spread must show it.
  EXPECT_GT(m.quartiles.max, mbps(55));
  EXPECT_LT(m.quartiles.min, mbps(5));
  EXPECT_GT(m.quartiles.spread(), mbps(50));
}

TEST(SnmpCollectorErrors, RequiresSeeds) {
  snmp::Transport t;
  EXPECT_THROW(SnmpCollector(t, {}), InvalidArgument);
}

TEST(SnmpCollectorErrors, AllSeedsUnreachableThrows) {
  snmp::Transport t;
  t.bind(snmp::agent_address("other"), [](const auto& d) {
    return std::optional(d);
  });
  SnmpCollector c(t, {"ghost"});
  EXPECT_THROW(c.discover(), Error);
  EXPECT_EQ(c.unreachable_agents(), 1u);
}

TEST(SnmpCollectorLoss, DiscoveryAndPollingSurviveLossyTransport) {
  CmuHarness::Options o;
  o.snmp_loss = 0.15;  // retries absorb this
  o.poll_period = 2.0;
  CmuHarness harness(o);
  harness.start(30.0);
  EXPECT_EQ(harness.collector().model().nodes().size(), 11u);
  EXPECT_GT(harness.collector().polls_completed(), 10u);
}

TEST(BenchmarkCollectorTest, MeasuresCleanAndCongestedPairs) {
  netsim::Simulator sim(netsim::make_cmu_testbed());
  BenchmarkCollector bench(sim, {"m-1", "m-4", "m-7"});
  bench.discover();
  EXPECT_EQ(bench.model().nodes().size(), 3u);
  EXPECT_EQ(bench.model().links().size(), 3u);  // clique

  bench.poll();  // clean network: every pair achieves full rate
  for (const ModelLink& l : bench.model().links()) {
    EXPECT_NEAR(l.capacity, mbps(100), mbps(2));
    EXPECT_GT(l.latency, 0);
    ASSERT_FALSE(l.history.empty());
  }

  // Congest timberline->whiteface; the m-4/m-7 pair must show usage.
  netsim::CbrTraffic cbr(sim, "m-5", "m-8", mbps(80), 4.0);
  bench.poll();
  bool flipped = false;
  const ModelLink* l = bench.model().find_link("m-4", "m-7", &flipped);
  ASSERT_NE(l, nullptr);
  const Sample& s = l->history.latest();
  const double used_toward_7 = flipped ? s.used_ba : s.used_ab;
  EXPECT_GT(used_toward_7, mbps(50));
  EXPECT_GT(bench.last_poll_duration(), 0.0);
}

TEST(BenchmarkCollectorTest, Validation) {
  netsim::Simulator sim(netsim::make_cmu_testbed());
  EXPECT_THROW(BenchmarkCollector(sim, {"m-1"}), InvalidArgument);
  BenchmarkCollector::Options bad;
  bad.probe_bytes = 0;
  EXPECT_THROW(BenchmarkCollector(sim, {"m-1", "m-2"}, bad),
               InvalidArgument);
  BenchmarkCollector ok(sim, {"m-1", "nope"});
  EXPECT_THROW(ok.discover(), NotFoundError);
}

TEST(CollectorSetTest, MergesSnmpAndBenchmarkViews) {
  CmuHarness harness;
  harness.start(10.0);
  BenchmarkCollector bench(harness.sim(), {"m-1", "m-8"});
  bench.discover();
  bench.poll();

  CollectorSet set;
  set.add(harness.collector());
  set.add(bench);
  EXPECT_THROW(set.add(bench), InvalidArgument);
  const NetworkModel merged = set.merged();
  // Physical topology (11 nodes) + the benchmark's logical m-1--m-8 link.
  EXPECT_EQ(merged.nodes().size(), 11u);
  EXPECT_EQ(merged.links().size(), 12u);
  EXPECT_NE(merged.find_link("m-1", "m-8"), nullptr);
  EXPECT_NE(merged.find_link("aspen", "timberline"), nullptr);
}

TEST(CollectorSetTest, PollRoundsAndMergeDurationAreObservable) {
  CmuHarness harness;
  harness.start(10.0);
  BenchmarkCollector bench(harness.sim(), {"m-1", "m-8"});
  bench.discover();

  obs::MetricsRegistry registry;
  CollectorSet set;
  set.set_obs(obs::Obs{&registry, nullptr});
  set.add(harness.collector());
  set.add(bench);
  std::size_t published = 0;
  set.set_publish_hook([&](NetworkModel) { ++published; });
  set.poll_all();
  set.poll_all();

  EXPECT_EQ(published, 2u);
  EXPECT_EQ(
      registry.counter("remos_collectorset_poll_rounds_total").value(), 2u);
  EXPECT_EQ(
      registry.counter("remos_collectorset_poll_errors_total").value(), 0u);
  // The publish path times merged(): one observation per round.
  EXPECT_EQ(registry
                .histogram("remos_collectorset_merge_duration_seconds",
                           obs::default_time_buckets())
                .count(),
            2u);
}

/// A collector whose every poll throws (a management domain gone dark).
class FailingCollector : public Collector {
 public:
  void discover() override {}
  void poll() override { throw Error("domain unreachable"); }
};

TEST(CollectorSetTest, PollErrorsEqualTheirSeriesWiredAndUnwired) {
  obs::MetricsRegistry registry;
  FailingCollector failing;
  CollectorSet set;
  set.add(failing);
  set.poll_all();
  set.poll_all();
  // Unwired, the set counts skipped collectors in a registry of its own.
  EXPECT_EQ(set.poll_errors(), 2u);

  // Wired, poll_errors() reads the deployment's series, which counts
  // from the wiring on: each skip lands in exactly one cell.
  set.set_obs(obs::Obs{&registry, nullptr});
  set.poll_all();
  const obs::Counter series =
      registry.counter("remos_collectorset_poll_errors_total");
  EXPECT_EQ(series.value(), 1u);
  EXPECT_EQ(set.poll_errors(), series.value());
}

TEST(CollectorPolling, StartStopLifecycle) {
  CmuHarness harness;  // polling armed in ctor
  harness.start(9.0);
  const std::size_t polls = harness.collector().polls_completed();
  EXPECT_GE(polls, 3u);
  harness.collector().stop_polling();
  harness.sim().run_for(10.0);
  EXPECT_EQ(harness.collector().polls_completed(), polls);
  EXPECT_THROW(harness.collector().start_polling(harness.sim(), 0),
               InvalidArgument);
}

}  // namespace
}  // namespace remos::collector
