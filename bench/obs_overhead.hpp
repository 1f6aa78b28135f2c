// The observability budget's measurement, shared by bench_service
// (Phase C) and bench_timeseries: the capacity workload served once with
// every sink a no-op and once with the harness's metrics, recorder and
// history series wired, compared at the median.
//
// A pass runs 4 clients x 20,000 two-host get_graph calls against a
// fresh CmuHarness and times each call in nanoseconds: the answers take
// a few microseconds, so whole-microsecond timing or a few hundred calls
// cannot resolve the ~1 us of cross-thread contention the budget exists
// to catch.  The overhead is measured over 5 pairs of passes, bare and
// wired alternating which goes first, and reported as the median of the
// pairs' wired/bare p50 ratios.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/harness.hpp"
#include "bench/bench_common.hpp"
#include "netsim/traffic.hpp"
#include "service/query_service.hpp"

namespace remos::bench {

/// One pass of the capacity workload.
struct ServicePass {
  double qps = 0;
  std::uint64_t p50_ns = 0;  // answered queries, client-observed
  std::uint64_t p99_ns = 0;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;  // any status that carries no answer
};

struct ObsOverhead {
  /// wired p50 / bare p50 - 1 of each pair of passes, in pass order.
  std::vector<double> pair_overheads;
  double median = 0;
  /// The pair whose overhead is the median.
  ServicePass bare, wired;
  std::uint64_t failed = 0;  // over every pass
};

/// 4 clients x `per_client` two-host get_graph calls on a fresh harness
/// with its sinks wired or not.
inline ServicePass service_pass(bool wire_obs, int per_client = 20'000) {
  using Clock = std::chrono::steady_clock;
  constexpr int kClients = 4;
  apps::CmuHarness::Options ho;
  ho.wire_obs = wire_obs;
  apps::CmuHarness harness(ho);
  harness.start(6.0);
  netsim::CbrTraffic background(harness.sim(), "m-5", "m-8", mbps(20),
                                4.0);
  service::QueryService::Options so;
  so.workers = 4;
  so.queue_capacity = 64;
  so.default_deadline = std::chrono::milliseconds(2000);
  so.staleness_slo = 1e9;
  so.poll_interval = std::chrono::milliseconds(5);
  auto service = harness.serve(so);

  std::mutex mu;
  std::vector<std::uint64_t> answered_ns;
  std::uint64_t failed = 0;
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<std::string>& hosts = harness.hosts();
      std::vector<std::uint64_t> local;
      local.reserve(static_cast<std::size_t>(per_client));
      std::uint64_t local_failed = 0;
      for (int i = 0; i < per_client; ++i) {
        service::GraphQuery q;
        q.nodes = {hosts[static_cast<std::size_t>(i + c) % hosts.size()],
                   hosts[static_cast<std::size_t>(i + c + 3) %
                         hosts.size()]};
        const auto s = Clock::now();
        const service::ResponseMeta meta =
            service->get_graph(std::move(q)).meta;
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - s)
                            .count();
        if (meta.ok())
          local.push_back(static_cast<std::uint64_t>(ns));
        else
          ++local_failed;
      }
      const std::lock_guard<std::mutex> lock(mu);
      answered_ns.insert(answered_ns.end(), local.begin(), local.end());
      failed += local_failed;
    });
  }
  for (std::thread& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();
  service->stop();

  ServicePass p;
  p.qps = secs == 0 ? 0 : kClients * per_client / secs;
  p.answered = answered_ns.size();
  p.failed = failed;
  p.p50_ns = percentile(answered_ns, 0.50);
  p.p99_ns = percentile(answered_ns, 0.99);
  return p;
}

/// 5 pairs of bare and wired passes, alternating which runs first.
inline ObsOverhead measure_obs_overhead() {
  constexpr int kPairs = 5;
  struct Pair {
    ServicePass bare, wired;
    double overhead = 0;
  };
  std::vector<Pair> pairs;
  ObsOverhead out;
  for (int i = 0; i < kPairs; ++i) {
    Pair pair;
    const bool wired_first = i % 2 == 1;
    for (const bool wire : {wired_first, !wired_first})
      (wire ? pair.wired : pair.bare) = service_pass(wire);
    pair.overhead = pair.bare.p50_ns == 0
                        ? 0.0
                        : static_cast<double>(pair.wired.p50_ns) /
                                  static_cast<double>(pair.bare.p50_ns) -
                              1.0;
    out.pair_overheads.push_back(pair.overhead);
    out.failed += pair.bare.failed + pair.wired.failed;
    pairs.push_back(pair);
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    return a.overhead < b.overhead;
  });
  const Pair& mid = pairs[pairs.size() / 2];
  out.median = mid.overhead;
  out.bare = mid.bare;
  out.wired = mid.wired;
  return out;
}

}  // namespace remos::bench
