// Replication-plane bench: the snapshot wire format and mid-storm
// failover, measured.
//
// Phase A (delta sync): a 256-host Waxman model under measurement churn;
// per round, encode the version delta, decode it, and apply it to a
// replica copy -- reports encode/apply p50 microseconds and the delta /
// full frame size ratio.  Every round asserts fingerprint convergence.
//
// Phase B (full resync): a 1024-host fat-tree (k=16) full frame --
// encode, then decode + materialize (what a gapped replica pays to
// rejoin), in milliseconds.
//
// Phase C (kill-a-replica soak): 3 replicas behind the
// FailoverCoordinator, 4 client threads, while the channel corrupts and
// drops frames, one replica is partitioned and another crash/restarts.
// Reports client success rate, p99 latency, reroutes, and the failover
// blackout -- the longest wall-clock gap between consecutive successful
// queries across all clients.  Always asserts that every replica
// converges bit-for-bit (canonical fingerprint) to the primary.
//
// Results print as a table and are written to BENCH_replication.json
// (override with --out FILE) for CI trend tracking.
//
// Flags:
//   --check   exit nonzero if success rate < 99%, blackout > 1000 ms,
//             delta apply p50 > 5000 us, or full resync > 5000 ms.  A
//             checked run never rewrites the committed
//             BENCH_replication.json: it writes its JSON only where
//             --out names.
//   --out F   write the JSON to F instead of BENCH_replication.json
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "collector/network_model.hpp"
#include "collector/snapshot_codec.hpp"
#include "netsim/generators.hpp"
#include "netsim/topology.hpp"
#include "service/failover.hpp"
#include "service/replication.hpp"
#include "util/strings.hpp"

namespace {

using namespace remos;
using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;
using Window = service::ChannelFaultInjector::Window;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

collector::NetworkModel build_model(const netsim::Topology& topo) {
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

/// One poll round of measurement churn: fresh samples on a rotating 5%
/// of the links, an occasional status flip.
void churn(collector::NetworkModel& model, int round, Seconds now) {
  auto& links = model.links();
  const std::size_t stride = std::max<std::size_t>(1, links.size() / 20);
  for (std::size_t k = 0; k < stride; ++k) {
    collector::ModelLink& l =
        links[(static_cast<std::size_t>(round) * stride + k) % links.size()];
    l.history.record(
        collector::Sample{now, mbps(5 + round % 7), mbps(1 + round % 3)});
    l.last_update = now;
  }
  if (round % 8 == 0) {
    collector::ModelLink& toggled =
        links[static_cast<std::size_t>(round / 8) % links.size()];
    model.set_link_up(toggled, !toggled.up());
  }
}

double p50(std::vector<double>& v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct DeltaResult {
  double encode_p50_us = 0;
  double apply_p50_us = 0;
  double delta_bytes_p50 = 0;
  std::size_t full_bytes = 0;
  int rounds = 0;
  bool converged = true;
};

DeltaResult run_delta_phase() {
  netsim::WaxmanParams wx;
  wx.hosts = 256;
  wx.routers = 64;
  wx.seed = 7;
  collector::NetworkModel primary = build_model(make_waxman(wx));
  collector::NetworkModel replica = primary;

  DeltaResult r;
  r.rounds = 64;
  r.full_bytes = collector::encode_full(primary, 1, 1.0).size();
  std::vector<double> encode_us, apply_us, sizes;
  collector::NetworkModel base = primary;
  for (int round = 2; round <= r.rounds + 1; ++round) {
    churn(primary, round, round);
    const auto t0 = Clock::now();
    const std::vector<std::uint8_t> wire = collector::encode_delta(
        base, static_cast<std::uint64_t>(round) - 1, primary,
        static_cast<std::uint64_t>(round), round);
    encode_us.push_back(us_since(t0));
    sizes.push_back(static_cast<double>(wire.size()));

    const auto t1 = Clock::now();
    const collector::SnapshotFrame frame = collector::decode_frame(wire);
    collector::apply_delta(replica, frame);
    apply_us.push_back(us_since(t1));

    r.converged = r.converged && collector::model_fingerprint(replica) ==
                                     collector::model_fingerprint(primary);
    base = primary;
  }
  r.encode_p50_us = p50(encode_us);
  r.apply_p50_us = p50(apply_us);
  r.delta_bytes_p50 = p50(sizes);
  return r;
}

struct ResyncResult {
  double encode_ms = 0;
  double materialize_ms = 0;
  std::size_t bytes = 0;
  std::size_t hosts = 0;
  bool converged = true;
};

ResyncResult run_resync_phase() {
  netsim::FatTreeParams ft;
  ft.k = 16;  // 1024 hosts
  const collector::NetworkModel primary = build_model(make_fat_tree(ft));

  ResyncResult r;
  r.hosts = ft.k * ft.k * ft.k / 4;
  // Best of 3: resync cost is a latency budget, not a throughput one.
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    const std::vector<std::uint8_t> wire =
        collector::encode_full(primary, 5, 9.0);
    const double enc = us_since(t0) / 1000.0;
    const auto t1 = Clock::now();
    const collector::NetworkModel rebuilt =
        collector::materialize(collector::decode_frame(wire));
    const double mat = us_since(t1) / 1000.0;
    if (rep == 0 || enc < r.encode_ms) r.encode_ms = enc;
    if (rep == 0 || mat < r.materialize_ms) r.materialize_ms = mat;
    r.bytes = wire.size();
    r.converged = r.converged && collector::model_fingerprint(rebuilt) ==
                                     collector::model_fingerprint(primary);
  }
  return r;
}

struct SoakResult {
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  double success_rate = 0;
  std::uint64_t p99_us = 0;
  double blackout_ms = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t resyncs = 0;
  bool converged = false;
};

SoakResult run_failover_soak() {
  constexpr int kClients = 4;
  constexpr int kRounds = 150;

  service::ReplicatedService::Options o;
  o.replicas = 3;
  o.service.workers = 2;
  o.service.queue_capacity = 64;
  o.service.default_deadline = 2'000'000us;
  o.service.staleness_slo = 30.0;
  o.full_every = 16;
  service::ReplicatedService rs(o);

  rs.faults().corrupt(Window{20.0, 50.0}, 0.30);
  rs.faults().drop(Window{40.0, 70.0}, 0.20);
  rs.faults().partition(1, Window{30.0, 60.0});
  rs.faults().crash(2, Window{60.0, 110.0});

  rs.start();
  netsim::WaxmanParams wx;
  wx.hosts = 32;
  wx.routers = 8;
  wx.seed = 12;
  collector::NetworkModel model = build_model(make_waxman(wx));
  rs.publish(model, 0.5);

  const auto epoch = Clock::now();
  std::atomic<bool> done{false};
  std::thread publisher([&] {
    for (int round = 1; round <= kRounds; ++round) {
      churn(model, round, round);
      rs.publish(model, round);
      std::this_thread::sleep_for(2ms);
    }
    done.store(true, std::memory_order_release);
  });

  std::mutex mu;
  std::vector<double> success_at_us;  // wall offsets of successful queries
  std::vector<std::uint64_t> latencies;
  std::atomic<std::uint64_t> ok{0}, failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<double> local_at;
      std::vector<std::uint64_t> local_lat;
      int i = 0;
      while (!done.load(std::memory_order_acquire)) {
        service::GraphQuery q;
        q.nodes = {numbered("h", i % 32),
                   numbered("h", (i + 5 + c) % 32)};
        const auto t0 = Clock::now();
        const service::ResponseMeta meta =
            rs.coordinator().get_graph(std::move(q)).meta;
        const double at = us_since(epoch);
        local_lat.push_back(static_cast<std::uint64_t>(us_since(t0)));
        if (meta.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
          local_at.push_back(at);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
        ++i;
      }
      const std::lock_guard<std::mutex> lock(mu);
      success_at_us.insert(success_at_us.end(), local_at.begin(),
                           local_at.end());
      latencies.insert(latencies.end(), local_lat.begin(), local_lat.end());
    });
  }
  publisher.join();
  for (std::thread& t : clients) t.join();
  rs.stop();

  SoakResult r;
  r.queries = ok.load() + failed.load();
  r.failed = failed.load();
  r.success_rate = r.queries == 0 ? 0
                                  : static_cast<double>(ok.load()) /
                                        static_cast<double>(r.queries);
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty())
    r.p99_us = latencies[std::min(
        latencies.size() - 1,
        static_cast<std::size_t>(
            0.99 * static_cast<double>(latencies.size())))];
  // Blackout: the longest stretch of the soak during which no query
  // succeeded anywhere -- what a well-routed failover keeps tiny even
  // while a replica is down.
  std::sort(success_at_us.begin(), success_at_us.end());
  double worst_gap_us = 0;
  for (std::size_t i = 1; i < success_at_us.size(); ++i)
    worst_gap_us =
        std::max(worst_gap_us, success_at_us[i] - success_at_us[i - 1]);
  r.blackout_ms = worst_gap_us / 1000.0;
  r.reroutes = rs.coordinator().stats().rerouted;
  r.restarts = rs.replica(2).stats().restarts;
  r.resyncs = rs.replica(0).stats().resyncs + rs.replica(1).stats().resyncs +
              rs.replica(2).stats().resyncs;

  r.converged = true;
  for (std::size_t i = 0; i < rs.replica_count(); ++i)
    r.converged = r.converged &&
                  rs.replica(i).fingerprint() == rs.primary_fingerprint() &&
                  rs.replica(i).applied_version() == rs.primary_version();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using bench::row;
  using bench::rule;

  bool check = false;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }
  if (out.empty() && !check) out = "BENCH_replication.json";

  std::cout << "Replicated snapshot plane: delta sync, resync, failover\n\n";

  const DeltaResult delta = run_delta_phase();
  const ResyncResult resync = run_resync_phase();
  const SoakResult soak = run_failover_soak();

  const std::vector<int> w{22, 14, 14, 14};
  row({"phase", "metric", "value", "unit"}, w);
  rule(w);
  row({"delta (waxman-256)", "encode p50", fixed(delta.encode_p50_us, 1),
       "us"},
      w);
  row({"", "apply p50", fixed(delta.apply_p50_us, 1), "us"}, w);
  row({"", "delta size p50", fixed(delta.delta_bytes_p50 / 1024.0, 1),
       "KiB"},
      w);
  row({"", "full size",
       fixed(static_cast<double>(delta.full_bytes) / 1024.0, 1), "KiB"},
      w);
  row({"full resync (ft-16)", "encode", fixed(resync.encode_ms, 2), "ms"},
      w);
  row({"", "decode+build", fixed(resync.materialize_ms, 2), "ms"}, w);
  row({"failover soak", "success rate", fixed(soak.success_rate * 100, 2),
       "%"},
      w);
  row({"", "p99", std::to_string(soak.p99_us), "us"}, w);
  row({"", "blackout", fixed(soak.blackout_ms, 1), "ms"}, w);
  row({"", "reroutes", std::to_string(soak.reroutes), ""}, w);
  row({"", "restarts", std::to_string(soak.restarts), ""}, w);
  std::cout << "\n(" << soak.queries << " soak queries; "
            << "blackout = longest gap between successful answers)\n";

  if (!out.empty()) {
    std::ofstream json(out);
    json << "{\n"
         << "  \"delta\": {\"encode_p50_us\": " << fixed(delta.encode_p50_us, 1)
         << ", \"apply_p50_us\": " << fixed(delta.apply_p50_us, 1)
         << ", \"delta_bytes_p50\": " << fixed(delta.delta_bytes_p50, 0)
         << ", \"full_bytes\": " << delta.full_bytes
         << ", \"rounds\": " << delta.rounds << "},\n"
         << "  \"full_resync\": {\"encode_ms\": " << fixed(resync.encode_ms, 2)
         << ", \"materialize_ms\": " << fixed(resync.materialize_ms, 2)
         << ", \"bytes\": " << resync.bytes << ", \"hosts\": " << resync.hosts
         << "},\n"
         << "  \"failover\": {\"queries\": " << soak.queries
         << ", \"success_rate\": " << fixed(soak.success_rate, 4)
         << ", \"p99_us\": " << soak.p99_us
         << ", \"blackout_ms\": " << fixed(soak.blackout_ms, 1)
         << ", \"reroutes\": " << soak.reroutes
         << ", \"restarts\": " << soak.restarts
         << ", \"resyncs\": " << soak.resyncs << ", \"converged\": "
         << (soak.converged ? "true" : "false") << "}\n"
         << "}\n";
    std::cout << "\nwrote " << out << "\n";
  }

  // Convergence is a correctness invariant, not a perf gate: enforced
  // with or without --check.
  bool ok = delta.converged && resync.converged && soak.converged &&
            soak.restarts >= 1;
  if (!ok) std::cerr << "BENCH_replication: convergence violated\n";
  if (check) {
    const bool gates = soak.success_rate >= 0.99 &&
                       soak.blackout_ms <= 1000.0 &&
                       delta.apply_p50_us <= 5000.0 &&
                       resync.encode_ms + resync.materialize_ms <= 5000.0;
    if (!gates) std::cerr << "BENCH_replication: --check gates violated\n";
    ok = ok && gates;
  }
  return ok ? 0 : 1;
}
