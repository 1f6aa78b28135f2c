// Chaos soak: the full measurement plane under a scripted multi-fault
// schedule on the Figure-3 CMU testbed.  The acceptance bar for graceful
// degradation:
//   - the collector's poll() never throws, no matter what the transport
//     does to it;
//   - router health transitions (healthy -> degraded -> unreachable and
//     back) are observable in the collector's log;
//   - data from a crashed router keeps answering queries, with accuracy
//     decaying monotonically as it goes stale;
//   - a permanently dead router costs O(1) datagrams per poll cycle once
//     its circuit breaker opens;
//   - everything is bit-for-bit reproducible from the seeds.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "apps/harness.hpp"
#include "fx/adaptation.hpp"
#include "fx/runtime.hpp"
#include "netsim/traffic.hpp"
#include "snmp/fault_injector.hpp"
#include "snmp/mib2.hpp"
#include "util/error.hpp"

namespace remos {
namespace {

using apps::CmuHarness;
using collector::AgentHealth;
using collector::HealthTransition;
using snmp::FaultInjector;

bool saw_transition(const std::vector<HealthTransition>& log,
                    const std::string& router, AgentHealth to) {
  for (const HealthTransition& t : log)
    if (t.router == router && t.to == to) return true;
  return false;
}

/// Least accuracy among links with any known usage in the logical graph
/// for `nodes` at the current timeframe.
double min_usage_accuracy(const core::Modeler& modeler,
                          const std::vector<std::string>& nodes) {
  const core::NetworkGraph g =
      modeler.get_graph(nodes, core::Timeframe::current());
  double acc = 1.0;
  bool any = false;
  for (const core::GraphLink& l : g.links()) {
    if (!l.used_ab.known() && !l.used_ba.known()) continue;
    any = true;
    acc = std::min(acc,
                   std::max(l.used_ab.known() ? l.used_ab.accuracy : 0.0,
                            l.used_ba.known() ? l.used_ba.accuracy : 0.0));
  }
  return any ? acc : -1.0;
}

TEST(ChaosSoak, MultiFaultScheduleDegradesGracefully) {
  CmuHarness::Options o;
  o.poll_period = 2.0;
  CmuHarness h(o);
  FaultInjector& fx = h.fault_injector();

  // The schedule: a 30% loss burst, two agent crash/restarts, a counter
  // reset without downtime, and (below, on the simulator) a link flap.
  fx.loss_burst({30.0, 60.0}, 0.30);
  fx.crash(snmp::agent_address("timberline"), {70.0, 90.0});
  fx.counter_reset(snmp::agent_address("aspen"), 100.0);
  fx.crash(snmp::agent_address("whiteface"), {120.0, 150.0});

  h.start(6.0);
  // Background traffic so link histories carry real usage.
  netsim::CbrTraffic cbr(h.sim(), "m-5", "m-8", mbps(20), 4.0);

  h.sim().run_for(94.0);  // through the burst and the timberline crash

  // Timberline died for 10 poll periods: it must have been marked
  // unreachable and recovered after the restart.
  EXPECT_TRUE(saw_transition(h.collector().health_log(), "timberline",
                             AgentHealth::kUnreachable));
  EXPECT_TRUE(saw_transition(h.collector().health_log(), "timberline",
                             AgentHealth::kHealthy));
  EXPECT_EQ(h.collector().health("timberline"), AgentHealth::kHealthy);

  h.sim().run_for(22.0);  // now 122: past the aspen counter reset
  // The reset re-based aspen's counters; the collector must have dropped
  // the implausible delta instead of recording a garbage sample.
  EXPECT_GE(h.collector().implausible_deltas(), 1u);

  // Whiteface is crashed from 120 to 150.  Its last samples keep
  // answering m-7/m-8 queries, with accuracy decaying as they age.
  std::vector<double> acc;
  for (int i = 0; i < 4; ++i) {
    h.sim().run_for(6.0);
    acc.push_back(min_usage_accuracy(h.modeler(), {"m-7", "m-8"}));
  }
  for (double a : acc) ASSERT_GT(a, 0.0);  // still answering
  for (std::size_t i = 1; i < acc.size(); ++i)
    EXPECT_LT(acc[i], acc[i - 1]) << "accuracy must decay with age";
  EXPECT_EQ(h.collector().health("whiteface"), AgentHealth::kUnreachable);

  // poll() is explicitly exception-free, even mid-crash.
  EXPECT_NO_THROW(h.collector().poll());

  h.sim().run_for(14.0);  // now 160: whiteface restarted
  EXPECT_EQ(h.collector().health("whiteface"), AgentHealth::kHealthy);
  const double recovered = min_usage_accuracy(h.modeler(), {"m-7", "m-8"});
  EXPECT_GT(recovered, acc.back());  // fresh samples restore confidence

  // Link flap on the physical plane: ifOperStatus must track it.
  const auto& topo = h.sim().topology();
  const netsim::LinkId tw = topo.link_between(topo.id_of("timberline"),
                                              topo.id_of("whiteface"));
  h.sim().set_link_up(tw, false);
  h.sim().run_for(5.0);
  const collector::ModelLink* ml =
      h.collector().model().find_link("timberline", "whiteface");
  ASSERT_NE(ml, nullptr);
  EXPECT_FALSE(ml->up());
  h.sim().set_link_up(tw, true);
  h.sim().run_for(5.0);
  EXPECT_TRUE(ml->up());

  // The soak really exercised the fault machinery and never lost the
  // polling loop.
  EXPECT_GT(fx.faults_injected(), 0u);
  EXPECT_GT(h.collector().breakers().fast_failures(), 0u);
  EXPECT_GT(h.collector().polls_completed(), 80u);
}

TEST(ChaosBreaker, DeadRouterCostsO1DatagramsPerPollCycle) {
  CmuHarness::Options o;
  o.poll_period = 2.0;
  CmuHarness h(o);
  const std::string dead = snmp::agent_address("whiteface");
  h.fault_injector().crash(dead, {10.0, FaultInjector::Window{}.until});

  h.start(6.0);
  h.sim().run_for(24.0);  // t=30: breaker long open

  EXPECT_EQ(h.collector().breakers().open_count(), 1u);
  const std::uint64_t before = h.transport().datagrams_sent_to(dead);
  const int cycles = 20;
  h.sim().run_for(cycles * o.poll_period);
  const std::uint64_t cost =
      h.transport().datagrams_sent_to(dead) - before;
  // A healthy router costs ~a dozen datagrams per poll (uptime + one
  // multi-GET per interface, requests and responses).  Open-breaker polls
  // must average O(1): only the periodic half-open probes touch the wire.
  EXPECT_LE(cost, static_cast<std::uint64_t>(2 * cycles));
  EXPECT_GT(h.collector().breakers().fast_failures(), 0u);
  EXPECT_EQ(h.collector().health("whiteface"), AgentHealth::kUnreachable);

  // The rest of the network is unaffected: queries between live hosts
  // still answer with full-confidence data.
  EXPECT_GT(min_usage_accuracy(h.modeler(), {"m-1", "m-4"}), 0.0);
}

TEST(ChaosAdaptive, AdaptiveRunBeatsFixedUnderInterferenceAndFaults) {
  // Table-3-style comparison with the interfering-1 traffic pattern plus
  // a management-plane loss burst: adaptation must still find the quiet
  // side of the network and beat the fixed mapping.
  auto run = [](bool adaptive) {
    CmuHarness h;
    h.fault_injector().loss_burst({20.0, 50.0}, 0.30);
    h.start(5.0);
    netsim::CbrTraffic blast(h.sim(), "m-6", "m-8", mbps(95), 120.0,
                             "external");
    h.sim().run_for(10.0);
    const std::vector<std::string> start_nodes{"m-4", "m-5", "m-6", "m-7",
                                               "m-8"};
    fx::FxRuntime rt(h.sim(), apps::make_airshed(12, /*chunks=*/8),
                     start_nodes);
    std::unique_ptr<fx::AdaptationModule> adapt;
    if (adaptive) {
      fx::AdaptationModule::Options opts;
      opts.timeframe = core::Timeframe::history(10.0);
      opts.compensate_own_traffic = true;
      opts.min_accuracy = 0.2;  // exercise the gate without starving it
      adapt = std::make_unique<fx::AdaptationModule>(
          h.modeler(), h.hosts(), "m-4", opts);
      rt.set_adaptation(adapt.get());
    }
    return rt.run();
  };
  const fx::RunStats fixed_run = run(false);
  const fx::RunStats adaptive_run = run(true);
  EXPECT_GT(adaptive_run.migrations, 0u);
  EXPECT_LT(adaptive_run.total, fixed_run.total);
}

TEST(ChaosDeterminism, FixedSeedsReproduceBitForBit) {
  auto signature = [] {
    CmuHarness::Options o;
    o.poll_period = 2.0;
    o.seed = 0xBEEF;
    CmuHarness h(o);
    FaultInjector& fx = h.fault_injector();
    fx.loss_burst({10.0, 30.0}, 0.30);
    fx.crash(snmp::agent_address("aspen"), {35.0, 50.0});
    fx.corrupt({52.0, 58.0}, 0.25);
    fx.truncate({52.0, 58.0}, 0.25);
    fx.stick_counters(snmp::agent_address("timberline"), {40.0, 55.0});
    h.start(6.0);
    netsim::CbrTraffic cbr(h.sim(), "m-1", "m-6", mbps(30), 4.0);
    h.sim().run_for(60.0);

    std::ostringstream out;
    out << h.transport().datagrams_sent() << '/'
        << h.transport().bytes_sent() << '/'
        << h.transport().datagrams_lost() << '/'
        << fx.faults_injected() << '/'
        << h.collector().implausible_deltas() << '/'
        << h.collector().breakers().fast_failures() << '\n';
    for (const HealthTransition& t : h.collector().health_log())
      out << t.at << ' ' << t.router << ' '
          << collector::to_string(t.from) << "->"
          << collector::to_string(t.to) << '\n';
    for (const collector::ModelLink& l : h.collector().model().links()) {
      out << l.a << '-' << l.b << ' ' << l.last_update << ' '
          << l.history.size();
      if (!l.history.empty())
        out << ' ' << l.history.latest().at << ' '
            << l.history.latest().used_ab << ' '
            << l.history.latest().used_ba;
      out << '\n';
    }
    return out.str();
  };
  const std::string first = signature();
  const std::string second = signature();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace remos
