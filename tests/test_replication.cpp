// The replicated snapshot plane (ISSUE 6): delta sync with gap
// detection -> full resync, redelivery idempotence, crash/restart state
// wipe, and the failover coordinator holding query success through a
// mid-storm fault schedule.
//
// The acceptance bar:
//   - a kill-a-replica soak: >= 8 client threads querying through the
//     FailoverCoordinator while the replication channel corrupts,
//     partitions and crash/restarts replicas; >= 99% of queries succeed
//     within their deadline, and every resynced replica converges
//     bit-for-bit (by canonical fingerprint) to the primary's newest
//     snapshot;
//   - unit coverage for gap-detect -> resync and duplicate/reorder
//     idempotence.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "collector/network_model.hpp"
#include "collector/snapshot_codec.hpp"
#include "netsim/generators.hpp"
#include "netsim/topology.hpp"
#include "obs/obs.hpp"
#include "service/failover.hpp"
#include "service/replication.hpp"
#include "util/strings.hpp"

namespace remos::service {
namespace {

using namespace std::chrono_literals;
using Window = ChannelFaultInjector::Window;

collector::NetworkModel waxman_model(std::size_t hosts, std::uint64_t seed) {
  netsim::WaxmanParams wx;
  wx.hosts = hosts;
  wx.routers = std::max<std::size_t>(4, hosts / 4);
  wx.seed = seed;
  const netsim::Topology topo = make_waxman(wx);
  collector::NetworkModel model;
  for (const netsim::Node& n : topo.nodes())
    model.upsert_node(n.name, n.kind == netsim::NodeKind::kNetwork)
        .internal_bw = n.internal_bw;
  for (const netsim::Link& l : topo.links()) {
    collector::ModelLink& ml = model.upsert_link(
        topo.name_of(l.a), topo.name_of(l.b), l.capacity, l.latency);
    ml.last_update = 1.0;
    ml.history.record(collector::Sample{1.0, 0.0, 0.0});
  }
  return model;
}

/// One measurement round: a fresh sample on a rotating link, and every
/// fifth round the next link's status toggles (structural churn).
void churn(collector::NetworkModel& model, int round, Seconds now) {
  auto& links = model.links();
  collector::ModelLink& l =
      links[static_cast<std::size_t>(round) % links.size()];
  l.history.record(
      collector::Sample{now, mbps(5 + round % 7), mbps(1 + round % 3)});
  l.last_update = now;
  if (round % 5 == 0) {
    collector::ModelLink& toggled =
        links[static_cast<std::size_t>(round / 5) % links.size()];
    model.set_link_up(toggled, !toggled.up());
  }
}

ReplicatedService::Options small_options(std::size_t replicas) {
  ReplicatedService::Options o;
  o.replicas = replicas;
  o.service.workers = 2;
  o.service.queue_capacity = 16;
  o.full_every = 1000;  // unit tests control full frames explicitly
  return o;
}

/// Every ReplicaStore::Stats and FailoverCoordinator::Stats field equals
/// its series in `metrics`.
void expect_stats_match_series(ReplicatedService& rs,
                               obs::MetricsRegistry& metrics) {
  const auto series = [&metrics](const char* family,
                                 const obs::Labels& labels) {
    return metrics.counter(family, labels).value();
  };
  for (std::size_t i = 0; i < rs.replica_count(); ++i) {
    const obs::Labels who{{"replica", std::to_string(i)}};
    const ReplicaStore::Stats s = rs.replica(i).stats();
    EXPECT_EQ(s.fulls_applied,
              series("remos_replication_applied_total",
                     obs::with_label(who, "kind", "full")));
    EXPECT_EQ(s.deltas_applied,
              series("remos_replication_applied_total",
                     obs::with_label(who, "kind", "delta")));
    EXPECT_EQ(s.rejected, series("remos_replication_rejected_total", who));
    EXPECT_EQ(s.ignored_stale,
              series("remos_replication_ignored_stale_total", who));
    EXPECT_EQ(s.gaps, series("remos_replication_gaps_total", who));
    EXPECT_EQ(s.resyncs, series("remos_replication_resyncs_total", who));
    EXPECT_EQ(s.restarts, series("remos_replication_restarts_total", who));
  }
  const FailoverCoordinator::Stats f = rs.coordinator().stats();
  EXPECT_EQ(f.queries, series("remos_failover_queries_total", {}));
  EXPECT_EQ(f.rerouted, series("remos_failover_reroutes_total", {}));
  EXPECT_EQ(f.exhausted, series("remos_failover_exhausted_total", {}));
  EXPECT_EQ(f.unrouted, series("remos_failover_unrouted_total", {}));
  EXPECT_EQ(f.degraded_fallback,
            series("remos_failover_degraded_fallback_total", {}));
  EXPECT_EQ(f.fast_expired, series("remos_failover_fast_expired_total", {}));
}

void expect_converged(ReplicatedService& rs) {
  ASSERT_GT(rs.primary_version(), 0u);
  for (std::size_t i = 0; i < rs.replica_count(); ++i) {
    EXPECT_EQ(rs.replica(i).applied_version(), rs.primary_version())
        << "replica " << i << " behind";
    EXPECT_EQ(rs.replica(i).fingerprint(), rs.primary_fingerprint())
        << "replica " << i << " diverged";
    EXPECT_FALSE(rs.replica(i).needs_full());
  }
}

TEST(Replication, CleanChannelConvergesByDeltas) {
  ReplicatedService rs(small_options(2));
  collector::NetworkModel model = waxman_model(16, 3);
  for (int round = 1; round <= 10; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  expect_converged(rs);
  for (std::size_t i = 0; i < 2; ++i) {
    const ReplicaStore::Stats s = rs.replica(i).stats();
    EXPECT_EQ(s.fulls_applied, 1u);  // only v1 ships full
    EXPECT_EQ(s.deltas_applied, 9u);
    EXPECT_EQ(s.gaps, 0u);
    EXPECT_EQ(s.rejected, 0u);
  }
  EXPECT_EQ(rs.bus_stats().dropped, 0u);
}

TEST(Replication, PeriodicFullFramesAnchorTheDeltaStream) {
  ReplicatedService::Options o = small_options(1);
  o.full_every = 3;  // versions 1, 4, 7 ship full
  ReplicatedService rs(o);
  collector::NetworkModel model = waxman_model(12, 4);
  for (int round = 1; round <= 7; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  expect_converged(rs);
  const ReplicaStore::Stats s = rs.replica(0).stats();
  EXPECT_EQ(s.fulls_applied, 3u);
  EXPECT_EQ(s.deltas_applied, 4u);
}

TEST(Replication, FullEveryOneShipsEveryVersionFull) {
  ReplicatedService::Options o = small_options(1);
  o.full_every = 1;  // every version is its own anchor
  ReplicatedService rs(o);
  collector::NetworkModel model = waxman_model(12, 4);
  for (int round = 1; round <= 5; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  expect_converged(rs);
  const ReplicaStore::Stats s = rs.replica(0).stats();
  EXPECT_EQ(s.fulls_applied, 5u);
  EXPECT_EQ(s.deltas_applied, 0u);
}

TEST(Replication, ReplicasSharingARegistryKeepTheirOwnCounts) {
  obs::Observability obs;
  ReplicatedService rs(small_options(2), obs.view());
  rs.start();
  // Replica 1 stops hearing the primary after v3, so the two replicas
  // end on different snapshot versions.
  rs.faults().partition(1, Window{3.5, 1e9});
  collector::NetworkModel model = waxman_model(12, 13);
  for (int round = 1; round <= 5; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  ASSERT_EQ(rs.replica(0).applied_version(), 5u);
  ASSERT_EQ(rs.replica(1).applied_version(), 3u);

  // Unequal traffic, straight to each replica's service: three answers
  // and an error on replica 0, one answer on replica 1.
  const auto ask = [&rs](std::size_t replica, bool valid) {
    GraphQuery q;
    q.nodes = {"h0", "h1"};
    if (!valid) {
      q.timeframe.kind = core::Timeframe::Kind::kHistory;
      q.timeframe.window = -1.0;
    }
    return rs.replica(replica).service().get_graph(std::move(q)).meta.status;
  };
  for (int i = 0; i < 3; ++i) EXPECT_EQ(ask(0, true), QueryStatus::kAnswered);
  EXPECT_EQ(ask(0, false), QueryStatus::kError);
  EXPECT_EQ(ask(1, true), QueryStatus::kAnswered);
  rs.stop();

  const std::uint64_t submitted[] = {4, 1};
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE("replica " + std::to_string(i));
    const obs::Labels who{{"replica", std::to_string(i)}};
    QueryService& svc = rs.replica(i).service();
    const ServiceStats s = svc.stats();
    EXPECT_EQ(s.submitted, submitted[i]);
    EXPECT_EQ(s.submitted,
              obs.metrics.counter("remos_service_queries_submitted_total", who)
                  .value());
    const std::pair<QueryStatus, std::uint64_t> by_status[] = {
        {QueryStatus::kAnswered, s.answered},
        {QueryStatus::kStale, s.stale},
        {QueryStatus::kDegraded, s.degraded},
        {QueryStatus::kOverloaded, s.shed},
        {QueryStatus::kExpired, s.expired},
        {QueryStatus::kError, s.errors}};
    for (const auto& [status, count] : by_status)
      EXPECT_EQ(obs.metrics
                    .counter("remos_service_queries_total",
                             obs::with_label(who, "status",
                                             obs::to_string(status)))
                    .value(),
                count)
          << obs::to_string(status);
    EXPECT_EQ(svc.admission().admitted(),
              obs.metrics
                  .counter("remos_service_tenant_admitted_total",
                           obs::with_label(who, "tenant", "default"))
                  .value());
    // Each replica's latency histogram holds its own executed queries.
    EXPECT_EQ(obs.metrics
                  .histogram("remos_service_latency_seconds",
                             obs::default_time_buckets(), who)
                  .count(),
              submitted[i]);
    // Every frame a replica received applied in order, so its service
    // published once per applied version.
    EXPECT_EQ(s.snapshot_version, rs.replica(i).applied_version());
    EXPECT_DOUBLE_EQ(
        obs.metrics.gauge("remos_service_snapshot_version", who).value(),
        static_cast<double>(rs.replica(i).applied_version()));
  }
  expect_stats_match_series(rs, obs.metrics);
}

TEST(Replication, DuplicatedFramesAreIgnoredIdempotently) {
  ReplicatedService::Options o = small_options(1);
  ReplicatedService rs(o);
  rs.faults().duplicate(Window{}, 1.0);  // every frame delivered twice
  collector::NetworkModel model = waxman_model(12, 5);
  for (int round = 1; round <= 5; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  expect_converged(rs);
  const ReplicaStore::Stats s = rs.replica(0).stats();
  EXPECT_EQ(s.gaps, 0u);
  EXPECT_GE(s.ignored_stale, 4u) << "second deliveries must be ignored";
  EXPECT_GE(rs.bus_stats().duplicated, 4u);
}

TEST(Replication, ReorderedFramesGapDetectAndResync) {
  ReplicatedService rs(small_options(1));
  // Every frame is held and delivered after its successor while the
  // window is open; the tail of the run is clean so the stream settles.
  rs.faults().reorder(Window{0.0, 4.5}, 1.0);
  collector::NetworkModel model = waxman_model(12, 6);
  for (int round = 1; round <= 8; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  expect_converged(rs);
  const ReplicaStore::Stats s = rs.replica(0).stats();
  EXPECT_GE(s.gaps, 1u) << "out-of-order deltas must flag a gap";
  EXPECT_GE(rs.bus_stats().reordered, 1u);
}

TEST(Replication, DropWindowCausesGapThenTargetedFullResync) {
  ReplicatedService rs(small_options(1));
  rs.faults().drop(Window{1.5, 3.5}, 1.0);  // v2, v3 vanish
  collector::NetworkModel model = waxman_model(12, 7);
  for (int round = 1; round <= 5; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  expect_converged(rs);
  const ReplicaStore::Stats s = rs.replica(0).stats();
  EXPECT_GE(s.gaps, 1u);
  EXPECT_GE(s.resyncs, 1u) << "the gap must be repaired by a full frame";
  EXPECT_GE(rs.bus_stats().dropped, 2u);
}

TEST(Replication, CorruptedAndTruncatedFramesAreRejectedThenRepaired) {
  ReplicatedService rs(small_options(1));
  rs.faults().corrupt(Window{1.5, 3.5}, 1.0);
  rs.faults().truncate(Window{1.5, 3.5}, 0.5);
  collector::NetworkModel model = waxman_model(12, 8);
  for (int round = 1; round <= 6; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  expect_converged(rs);
  const ReplicaStore::Stats s = rs.replica(0).stats();
  EXPECT_GE(s.rejected, 2u)
      << "in-flight corruption must be refused, never applied";
  EXPECT_GE(rs.bus_stats().mutated, 2u);
}

TEST(Replication, CrashWipesStateAndRestartFullResyncs) {
  ReplicatedService rs(small_options(2));
  rs.faults().crash(1, Window{2.5, 4.5});
  collector::NetworkModel model = waxman_model(12, 9);
  for (int round = 1; round <= 7; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
    if (round == 3 || round == 4) {
      EXPECT_FALSE(rs.replica(1).serving());
      EXPECT_TRUE(rs.replica(0).serving());
    }
  }
  expect_converged(rs);
  const ReplicaStore::Stats crashed = rs.replica(1).stats();
  EXPECT_EQ(crashed.restarts, 1u);
  EXPECT_GE(crashed.resyncs, 1u)
      << "restart wipes volatile state; recovery needs a full frame";
  const ReplicaStore::Stats untouched = rs.replica(0).stats();
  EXPECT_EQ(untouched.restarts, 0u);
  EXPECT_EQ(untouched.gaps, 0u);
  EXPECT_GE(rs.bus_stats().blackholed, 2u);
}

TEST(Failover, RoutesAroundACrashedReplica) {
  ReplicatedService rs(small_options(3));
  rs.start();
  rs.faults().crash(0, Window{3.5, 1e9});
  collector::NetworkModel model = waxman_model(12, 10);
  for (int round = 1; round <= 5; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  EXPECT_FALSE(rs.coordinator().healthy(0));
  EXPECT_TRUE(rs.coordinator().healthy(1));
  EXPECT_TRUE(rs.coordinator().healthy(2));
  EXPECT_EQ(rs.coordinator().healthy_count(), 2u);

  for (int i = 0; i < 21; ++i) {
    if (i % 3 == 0) {
      core::FlowQuery fq;
      fq.fixed = {core::FlowRequest{"h0", "h5", mbps(5)}};
      FlowInfoQuery q;
      q.query = std::move(fq);
      const FlowInfoResponse resp = rs.coordinator().flow_info(std::move(q));
      EXPECT_TRUE(resp.meta.ok()) << resp.meta.error;
    } else {
      GraphQuery q;
      q.nodes = {"h0", numbered("h", 1 + i % 5)};
      const GraphResponse resp = rs.coordinator().get_graph(std::move(q));
      EXPECT_TRUE(resp.meta.ok()) << resp.meta.error;
    }
  }
  const FailoverCoordinator::Stats fs = rs.coordinator().stats();
  EXPECT_EQ(fs.queries, 21u);
  EXPECT_GE(fs.rerouted, 1u)
      << "round-robin picks of the dead replica must be rerouted";
  EXPECT_EQ(fs.unrouted, 0u);
  rs.stop();
}

TEST(Failover, NoServingReplicaIsAStructuredError) {
  ReplicatedService rs(small_options(2));
  rs.start();
  collector::NetworkModel model = waxman_model(12, 11);
  rs.publish(model, 1.0);
  rs.faults().crash(0, Window{1.5, 1e9});
  rs.faults().crash(1, Window{1.5, 1e9});
  rs.publish(model, 2.0);
  EXPECT_EQ(rs.coordinator().healthy_count(), 0u);

  GraphQuery q;
  q.nodes = {"h0", "h1"};
  const GraphResponse resp = rs.coordinator().get_graph(std::move(q));
  EXPECT_EQ(resp.meta.status, QueryStatus::kError);
  EXPECT_FALSE(resp.meta.error.empty());
  EXPECT_GE(rs.coordinator().stats().unrouted, 1u);
  rs.stop();
}

TEST(Failover, SubSliceDeadlineFailsFast) {
  // A total deadline that cannot cover even one min_attempt_slice is
  // rejected before any replica is touched: a synthesized kExpired with
  // a structured error beats issuing a doomed near-zero-budget attempt.
  obs::Observability obs;
  ReplicatedService::Options o = small_options(1);
  o.failover.min_attempt_slice = std::chrono::microseconds(50'000);
  ReplicatedService rs(o, obs.view());
  rs.start();
  collector::NetworkModel model = waxman_model(12, 21);
  rs.publish(model, 1.0);

  GraphQuery q;
  q.nodes = {"h0", "h1"};
  q.deadline = std::chrono::microseconds(49'999);
  const GraphResponse resp = rs.coordinator().get_graph(std::move(q));
  EXPECT_EQ(resp.meta.status, QueryStatus::kExpired);
  EXPECT_NE(resp.meta.error.find("minimum attempt slice"),
            std::string::npos);
  EXPECT_EQ(rs.coordinator().stats().fast_expired, 1u);
  // Fast means fast: the replica's service never saw the query.
  EXPECT_EQ(rs.replica(0).service().stats().submitted, 0u);
  EXPECT_EQ(
      obs.metrics.counter("remos_failover_fast_expired_total", {}).value(),
      1u);

  // The boundary is strict (<): a deadline of exactly one slice is
  // viable -- the clamp trims max_attempts down to the one attempt the
  // budget covers, and the query is answered.
  GraphQuery exact;
  exact.nodes = {"h0", "h1"};
  exact.deadline = std::chrono::microseconds(50'000);
  const GraphResponse answered = rs.coordinator().get_graph(std::move(exact));
  EXPECT_TRUE(answered.meta.ok());
  EXPECT_EQ(rs.coordinator().stats().fast_expired, 1u);
  EXPECT_EQ(rs.replica(0).service().stats().submitted, 1u);
  rs.stop();
}

TEST(Failover, UnroutedAndDegradedFallbackAreExported) {
  // The two "the plane is hurting" outcomes -- no routable replica at
  // all, and a stale-fallback answer from an unhealthy replica -- must
  // reach the metrics registry, not just the in-process Stats struct:
  // they are exactly what an operator alerts on.
  obs::Observability obs;
  ReplicatedService::Options o = small_options(1);
  o.failover.max_lag_versions = 4;
  ReplicatedService rs(o, obs.view());
  rs.start();

  // Nothing published yet: the replica has never synced, so the query
  // has nowhere to go.
  GraphQuery q;
  q.nodes = {"h0", "h1"};
  const GraphResponse none = rs.coordinator().get_graph(std::move(q));
  EXPECT_EQ(none.meta.status, QueryStatus::kError);
  EXPECT_EQ(rs.coordinator().stats().unrouted, 1u);
  EXPECT_EQ(obs.metrics.counter("remos_failover_unrouted_total", {}).value(),
            1u);

  // Three healthy rounds, then partition the replica and publish until
  // its lag breaches max_lag_versions: unhealthy, but still serving its
  // last applied snapshot.
  collector::NetworkModel model = waxman_model(12, 22);
  for (int round = 1; round <= 3; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  rs.faults().partition(0, Window{3.5, 1e9});
  for (int round = 4; round <= 12; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  EXPECT_EQ(rs.coordinator().healthy_count(), 0u);
  EXPECT_TRUE(rs.replica(0).serving());

  GraphQuery q2;
  q2.nodes = {"h0", "h1"};
  const GraphResponse fallback = rs.coordinator().get_graph(std::move(q2));
  EXPECT_TRUE(fallback.meta.ok()) << fallback.meta.error;
  EXPECT_EQ(rs.coordinator().stats().degraded_fallback, 1u);
  EXPECT_EQ(
      obs.metrics.counter("remos_failover_degraded_fallback_total", {})
          .value(),
      1u);
  rs.stop();
}

// --- the kill-a-replica soak -----------------------------------------

TEST(ReplicationSoak, FailoverHoldsQuerySuccessThroughTheStorm) {
  constexpr int kClients = 8;
  constexpr int kRounds = 120;
  constexpr auto kDeadline = 2'000'000us;

  ReplicatedService::Options o;
  o.replicas = 3;
  o.service.workers = 2;
  o.service.queue_capacity = 64;
  o.service.default_deadline = kDeadline;
  o.service.staleness_slo = 20.0;
  o.full_every = 16;
  o.failover.max_lag_versions = 8;
  o.failover.max_attempts = 3;
  obs::Observability obs;
  ReplicatedService rs(o, obs.view());

  // The storm: channel-wide corruption and loss bursts, replica 1
  // partitioned, replica 2 crash/restarted -- all overlapping, all
  // finished by round 90 so the tail of the run must reconverge.
  rs.faults().corrupt(Window{20.0, 50.0}, 0.30);
  rs.faults().drop(Window{40.0, 70.0}, 0.20);
  rs.faults().partition(1, Window{30.0, 60.0});
  rs.faults().crash(2, Window{60.0, 90.0});

  rs.start();
  // Seed every replica with version 1 before any client runs, so the
  // soak measures mid-storm behavior rather than cold-start races.
  collector::NetworkModel seed_model = waxman_model(24, 12);
  rs.publish(seed_model, 0.5);
  std::atomic<bool> done{false};
  std::thread publisher([&, model = std::move(seed_model)]() mutable {
    for (int round = 1; round <= kRounds; ++round) {
      churn(model, round, round);
      rs.publish(model, round);
      std::this_thread::sleep_for(2ms);
    }
    done.store(true, std::memory_order_release);
  });

  struct Tally {
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::vector<std::chrono::microseconds> latencies;
  };
  std::vector<Tally> tallies(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Tally& tally = tallies[static_cast<std::size_t>(c)];
      int i = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto t0 = std::chrono::steady_clock::now();
        ResponseMeta meta;
        if ((i + c) % 3 == 0) {
          core::FlowQuery fq;
          fq.fixed = {core::FlowRequest{
              numbered("h", i % 24),
              numbered("h", (i + 7 + c) % 24), mbps(5)}};
          FlowInfoQuery q;
          q.query = std::move(fq);
          meta = rs.coordinator().flow_info(std::move(q)).meta;
        } else {
          GraphQuery q;
          q.nodes = {numbered("h", i % 24),
                     numbered("h", (i + 1 + c) % 24)};
          meta = rs.coordinator().get_graph(std::move(q)).meta;
        }
        const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0);
        tally.latencies.push_back(us);
        if (meta.ok())
          ++tally.ok;
        else
          ++tally.failed;
        ++i;
      }
    });
  }
  publisher.join();
  for (std::thread& t : clients) t.join();
  rs.stop();

  Tally all;
  for (Tally& t : tallies) {
    all.ok += t.ok;
    all.failed += t.failed;
    all.latencies.insert(all.latencies.end(), t.latencies.begin(),
                         t.latencies.end());
  }
  const std::uint64_t total = all.ok + all.failed;
  ASSERT_GT(total, 500u) << "clients barely ran";

  // The acceptance bar: >= 99% of queries succeed within their deadline
  // even while a replica is down and the channel is corrupting frames.
  const double success =
      static_cast<double>(all.ok) / static_cast<double>(total);
  EXPECT_GE(success, 0.99) << all.failed << " of " << total << " failed";
  std::sort(all.latencies.begin(), all.latencies.end());
  const auto p99 =
      all.latencies[std::min(all.latencies.size() - 1,
                             static_cast<std::size_t>(
                                 0.99 * static_cast<double>(
                                            all.latencies.size())))];
  EXPECT_LE(p99.count(), kDeadline.count()) << "p99 blew the deadline SLO";

  // The storm really happened and the coordinator really steered around
  // it.
  EXPECT_GT(rs.faults().faults_injected(), 0u);
  EXPECT_GE(rs.replica(2).stats().restarts, 1u);
  EXPECT_GE(rs.coordinator().stats().rerouted, 1u);
  // Counted from client, worker and publisher threads at once, each
  // event landed once, in the series its Stats field reads.
  expect_stats_match_series(rs, obs.metrics);

  // Bit-for-bit convergence: after the clean tail, every replica's
  // canonical fingerprint equals the primary's newest snapshot.
  expect_converged(rs);
}

}  // namespace
}  // namespace remos::service
