// Tenant QoS quickstart: weighted fair admission, brownout, and the
// client-side retry budget in one small program.
//
// Two applications share one Remos query service: "interactive" (a
// network-aware scheduler placing tasks, weight 4) and "batch" (a bulk
// topology walker, weight 1, deliberately run 10x too hot).  The
// admission plane slices the service's concurrency budget by weight, so
// the batch tenant's storm is shed back onto itself while interactive
// queries keep their latency class; shed queries with a cached answer
// brown out (kDegraded: the last good answer, accuracy discounted by
// age) instead of failing dry.  The batch client wraps its calls in
// RemosClient, whose retry budget caps amplification near 1x even while
// most of its attempts are being shed.  The metrics exposition at the end
// carries each tenant's admitted and shed counts.
//
//   ./tenant_qos
#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "apps/harness.hpp"
#include "service/query_service.hpp"
#include "service/remos_client.hpp"
#include "service/tenant_admission.hpp"
#include "util/strings.hpp"

namespace {

using namespace remos;
using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  apps::CmuHarness harness;
  harness.start(6.0);

  service::QueryService::Options so;
  so.workers = 4;
  so.queue_capacity = 16;      // admission budget: 16 concurrent queries
  so.reserved_fraction = 1.0;  // strict weighted slices, no shared pool
  so.default_deadline = 100ms;
  so.staleness_slo = 1e9;
  so.poll_interval = 3ms;
  so.cache_capacity = 256;     // enables the brownout ladder
  auto service = harness.serve(so);

  const int interactive = service->register_tenant("interactive", 4.0);
  const int batch = service->register_tenant("batch", 1.0);
  std::cout << "budget 16, weights: interactive 4, batch 1, default 1\n"
            << "  -> reserved slots: interactive "
            << service->admission().tenant_stats(interactive).reserved_slots
            << ", batch "
            << service->admission().tenant_stats(batch).reserved_slots
            << "\n\n";

  const std::vector<std::string>& hosts = harness.hosts();

  // Both tenants program against FlowInfoEndpoint; that the interactive
  // tenant talks straight to the service while batch goes through a
  // retry-budgeted RemosClient is pure wiring.
  service::FlowInfoEndpoint& fg_endpoint = *service;

  // Interactive: 600 paced placement queries with a tight deadline.
  std::atomic<bool> done{false};
  std::vector<double> lat;
  std::uint64_t ok = 0;
  std::thread fg([&] {
    lat.reserve(600);
    for (int i = 0; i < 600; ++i) {
      service::GraphQuery q;
      q.nodes = {hosts[static_cast<std::size_t>(i) % hosts.size()],
                 hosts[static_cast<std::size_t>(i + 1) % hosts.size()]};
      q.tenant = interactive;
      q.deadline = 50ms;
      const auto t0 = Clock::now();
      if (fg_endpoint.get_graph(std::move(q)).meta.ok()) ++ok;
      lat.push_back(us_since(t0));
      std::this_thread::sleep_for(200us);
    }
    done.store(true, std::memory_order_release);
  });

  // Batch: ten unpaced threads through one retry-budgeted client --
  // far more offered load than a weight-1 slice can absorb.
  service::RemosClient::Options co;
  co.tenant = batch;
  co.max_attempts = 3;
  co.base_backoff = 100us;
  service::RemosClient batch_client(*service, co);
  service::FlowInfoEndpoint& bg_endpoint = batch_client;
  std::vector<std::thread> bg;
  for (int t = 0; t < 10; ++t) {
    bg.emplace_back([&, t] {
      std::uint64_t s = 0x9e3779b97f4a7c15ull * static_cast<unsigned>(t + 1);
      while (!done.load(std::memory_order_acquire)) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        service::GraphQuery q;
        q.nodes = {hosts[(s >> 3) % hosts.size()],
                   hosts[(s >> 17) % hosts.size()],
                   hosts[(s >> 31) % hosts.size()]};
        bg_endpoint.get_graph(std::move(q));
      }
    });
  }

  fg.join();
  for (std::thread& t : bg) t.join();

  std::sort(lat.begin(), lat.end());
  const double p99 =
      lat[std::min(lat.size() - 1,
                   static_cast<std::size_t>(0.99 *
                                            static_cast<double>(lat.size())))];
  const service::TenantAdmission& adm = service->admission();
  const service::RemosClient::Stats cs = batch_client.stats();
  const service::ServiceStats ss = service->stats();

  std::cout << "interactive: " << ok << "/600 ok, p99 " << fixed(p99, 0)
            << " us, sheds " << adm.tenant_stats(interactive).shed << "\n";
  std::cout << "batch:       " << cs.requests << " requests, "
            << cs.attempts << " attempts (amplification "
            << fixed(static_cast<double>(cs.attempts) /
                         static_cast<double>(std::max<std::uint64_t>(
                             1, cs.requests)),
                     3)
            << "x), sheds " << adm.tenant_stats(batch).shed << "\n";
  std::cout << "service:     " << ss.cache_hits << " cache hits, "
            << ss.degraded << " brownout answers, " << ss.shed
            << " shed dry\n";

  // The contract this example demonstrates: the storm was shed onto its
  // source, the interactive tenant kept its latency class, and retries
  // never amplified the batch load.
  const bool isolated =
      adm.tenant_stats(interactive).shed == 0 && ok >= 570 &&
      static_cast<double>(cs.attempts) <=
          1.3 * static_cast<double>(std::max<std::uint64_t>(1, cs.requests));
  std::cout << (isolated ? "\ntenant isolation held\n"
                         : "\ntenant isolation VIOLATED\n");

  // The exposition, scrape-ready: CI checks the per-tenant series.
  std::cout << "\n--- metrics ---\n"
            << harness.metrics().render() << "--- end metrics ---\n";
  return isolated ? 0 : 1;
}
