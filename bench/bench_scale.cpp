// Scale-plane bench: synthetic topology sweep measuring, per size:
//
//   - model build time (generator + collector NetworkModel construction);
//   - per-event incremental max-min solve time under flow churn, next to
//     the retained from-scratch solver on the same instance (the ratio is
//     the whole point of IncrementalMaxMin);
//   - Modeler::flow_info latency (p50/p99) over 1000 random host-pair
//     queries against a snapshot of the model.
//
// Results print as a table and are written to BENCH_scale.json (override
// with --out FILE) for CI trend tracking.  A --check run never rewrites
// the baseline it compares against: it writes its JSON only where --out
// names.
//
// Flags:
//   --small   sweep only topologies up to 256 hosts (CI perf-smoke mode)
//   --check   exit nonzero if the incremental solver's mean per-event
//             solve exceeds 10% of the from-scratch solve on the
//             256-host Waxman instance, if any topology's query p50
//             exceeds 1.5x its value in the committed BENCH_scale.json
//             plus 20 us, or (full
//             sweep only) if the 1024-host fat-tree model build + 1000
//             queries exceed 5 s
//   --out F   write the JSON to F (default: BENCH_scale.json, or no
//             file under --check)
#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "collector/network_model.hpp"
#include "core/modeler.hpp"
#include "netsim/generators.hpp"
#include "netsim/maxmin.hpp"
#include "netsim/routing.hpp"
#include "netsim/topology.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

using namespace remos;
using netsim::FlowHandle;
using netsim::IncrementalMaxMin;
using netsim::LinkId;
using netsim::MaxMinFlow;
using netsim::NodeId;
using netsim::Topology;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

struct TopoCase {
  std::string family;
  std::size_t hosts = 0;
  Topology topo;
};

std::vector<TopoCase> sweep(bool small) {
  std::vector<TopoCase> out;
  for (const std::size_t k : {4u, 8u, 16u}) {
    if (small && k > 8) continue;
    netsim::FatTreeParams p;
    p.k = k;
    out.push_back({"fat_tree", k * k * k / 4, make_fat_tree(p)});
  }
  for (const std::size_t side : {32u, 128u, 512u}) {
    if (small && side > 128) continue;
    netsim::DumbbellParams p;
    p.hosts_per_side = side;
    p.trunk_hops = 2;
    out.push_back({"dumbbell", 2 * side, make_dumbbell(p)});
  }
  for (const std::size_t hosts : {64u, 256u, 1024u}) {
    if (small && hosts > 256) continue;
    netsim::WaxmanParams p;
    p.hosts = hosts;
    p.routers = std::max<std::size_t>(16, hosts / 4);
    p.seed = 7;
    out.push_back({"waxman", hosts, make_waxman(p)});
  }
  return out;
}

std::size_t dir_index(LinkId link, bool from_a) {
  return 2 * static_cast<std::size_t>(link) + (from_a ? 0 : 1);
}

/// Collector-model construction from a generated topology (what a
/// completed discovery pass would produce), with one quiet sample per
/// link so dynamic timeframes have data.
collector::NetworkModel build_model(const Topology& topo) {
  collector::NetworkModel model;
  for (const netsim::Node& n : topo.nodes())
    model.upsert_node(n.name, n.kind == netsim::NodeKind::kNetwork)
        .internal_bw = n.internal_bw;
  for (const netsim::Link& l : topo.links()) {
    collector::ModelLink& ml =
        model.upsert_link(topo.name_of(l.a), topo.name_of(l.b), l.capacity,
                          l.latency);
    ml.last_update = 1.0;
    ml.history.record(collector::Sample{1.0, 0.0, 0.0});
  }
  return model;
}

struct ChurnStats {
  std::size_t events = 0;
  double inc_mean_us = 0;
  double oracle_mean_us = 0;
  double ratio() const {
    return oracle_mean_us == 0 ? 0.0 : inc_mean_us / oracle_mean_us;
  }
};

/// Seeded add/remove churn at up to 32 live flows: times every
/// incremental solve and, every 8th event, a from-scratch solve of the
/// full live instance for the ratio.
ChurnStats run_churn(const Topology& topo, std::uint64_t seed) {
  const netsim::RoutingTable routing(topo);
  const std::vector<NodeId> hosts = topo.compute_nodes();
  std::vector<double> caps(2 * topo.link_count(), 0.0);
  for (const netsim::Link& l : topo.links()) {
    caps[dir_index(l.id, true)] = l.capacity;
    caps[dir_index(l.id, false)] = l.capacity;
  }
  IncrementalMaxMin inc(caps);
  Rng rng(seed);

  struct Live {
    FlowHandle handle;
    MaxMinFlow spec;
  };
  std::vector<Live> live;

  const auto event = [&] {
    if (live.size() < 32 && (live.size() < 4 || rng.chance(0.5))) {
      MaxMinFlow spec;
      for (int tries = 0; tries < 16; ++tries) {
        const NodeId src = hosts[rng.below(hosts.size())];
        const NodeId dst = hosts[rng.below(hosts.size())];
        if (src == dst) continue;
        const netsim::Path path = routing.route(src, dst);
        for (std::size_t i = 0; i < path.links.size(); ++i) {
          const netsim::Link& l = topo.link(path.links[i]);
          spec.resources.push_back(dir_index(l.id, path.nodes[i] == l.a));
        }
        break;
      }
      spec.weight = rng.uniform(0.5, 4.0);
      live.push_back({inc.add_flow(spec), std::move(spec)});
    } else {
      const std::size_t i = rng.below(live.size());
      inc.remove_flow(live[i].handle);
      live[i] = std::move(live.back());
      live.pop_back();
    }
  };

  // Warmup: reach steady live count and buffer high-water marks.
  for (int i = 0; i < 128; ++i) {
    event();
    inc.solve();
  }

  ChurnStats stats;
  stats.events = 512;
  double inc_us = 0, oracle_us = 0;
  std::size_t oracle_solves = 0;
  for (std::size_t e = 0; e < stats.events; ++e) {
    event();
    const auto t0 = Clock::now();
    inc.solve();
    inc_us += ms_since(t0) * 1e3;
    if (e % 8 == 0) {
      std::vector<MaxMinFlow> specs;
      specs.reserve(live.size());
      for (const Live& f : live) specs.push_back(f.spec);
      const auto t1 = Clock::now();
      const auto ref = netsim::max_min_allocate(caps, specs);
      oracle_us += ms_since(t1) * 1e3;
      ++oracle_solves;
      (void)ref;
    }
  }
  stats.inc_mean_us = inc_us / static_cast<double>(stats.events);
  stats.oracle_mean_us =
      oracle_us / static_cast<double>(std::max<std::size_t>(1, oracle_solves));
  return stats;
}

struct QueryStats {
  std::size_t count = 0;
  double total_ms = 0;
  double p50_us = 0;
  double p99_us = 0;
};

QueryStats run_queries(const collector::NetworkModel& model,
                       const Topology& topo, std::size_t count,
                       std::uint64_t seed) {
  core::Modeler modeler(model);
  const std::vector<NodeId> hosts = topo.compute_nodes();
  Rng rng(seed);
  std::vector<double> lat_us;
  lat_us.reserve(count);
  QueryStats out;
  out.count = count;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    core::FlowQuery q;
    core::FlowRequest req;
    req.src = topo.name_of(hosts[rng.below(hosts.size())]);
    do {
      req.dst = topo.name_of(hosts[rng.below(hosts.size())]);
    } while (req.dst == req.src);
    req.requested = mbps(5);
    q.fixed.push_back(std::move(req));
    const auto s = Clock::now();
    const core::FlowQueryResult r = modeler.flow_info(q);
    lat_us.push_back(ms_since(s) * 1e3);
    if (r.fixed.empty()) std::cerr << "empty flow result\n";
  }
  out.total_ms = ms_since(t0);
  std::sort(lat_us.begin(), lat_us.end());
  const auto pct = [&](double p) {
    const auto idx = std::min(
        lat_us.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(lat_us.size())));
    return lat_us[idx];
  };
  out.p50_us = pct(0.50);
  out.p99_us = pct(0.99);
  return out;
}

/// The query p50 of one topology in a prior BENCH_scale.json, or -1 if
/// absent.  Hand-rolled on purpose: this bench writes the file itself, so
/// its shape is known (each entry's one "p50_us" follows its family and
/// host count).
double baseline_p50(const std::string& text, const std::string& family,
                    std::size_t hosts) {
  const std::string entry = "\"family\": \"" + family +
                            "\", \"hosts\": " + std::to_string(hosts) + ",";
  const std::string key = "\"p50_us\": ";
  const std::size_t at = text.find(entry);
  if (at == std::string::npos) return -1.0;
  const std::size_t pos = text.find(key, at);
  if (pos == std::string::npos) return -1.0;
  try {
    return std::stod(text.substr(pos + key.size()));
  } catch (const std::exception&) {
    return -1.0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using bench::row;
  using bench::rule;

  bool small = false, check = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_scale [--small] [--check] [--out FILE]\n";
      return 2;
    }
  }

  if (out_path.empty() && !check) out_path = "BENCH_scale.json";

  std::string baseline;
  if (check) {
    std::ifstream in("BENCH_scale.json");
    baseline.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    if (baseline.empty())
      std::cerr << "BENCH_scale: --check but no committed BENCH_scale.json "
                   "baseline; skipping the query-latency gate\n";
  }

  std::cout << "Scale plane: build / churn-solve / query sweep"
            << (small ? " (small mode)" : "") << "\n\n";

  struct Entry {
    TopoCase tc;
    double build_ms = 0;
    ChurnStats churn;
    QueryStats queries;
  };
  std::vector<Entry> entries;
  for (TopoCase& tc : sweep(small)) {
    Entry e;
    e.tc = std::move(tc);
    const auto t0 = Clock::now();
    const collector::NetworkModel model = build_model(e.tc.topo);
    e.build_ms = ms_since(t0);
    e.churn = run_churn(e.tc.topo, 0x5CA1E + e.tc.hosts);
    e.queries = run_queries(model, e.tc.topo, 1000, 0x9E55 + e.tc.hosts);
    entries.push_back(std::move(e));
  }

  const std::vector<int> w{10, 7, 7, 7, 10, 10, 10, 9, 10, 10};
  row({"family", "hosts", "nodes", "links", "build ms", "inc us",
       "oracle us", "ratio", "q p50 us", "q p99 us"},
      w);
  rule(w);
  for (const Entry& e : entries)
    row({e.tc.family, std::to_string(e.tc.hosts),
         std::to_string(e.tc.topo.node_count()),
         std::to_string(e.tc.topo.link_count()), fixed(e.build_ms, 2),
         fixed(e.churn.inc_mean_us, 2), fixed(e.churn.oracle_mean_us, 2),
         fixed(e.churn.ratio(), 3), fixed(e.queries.p50_us, 1),
         fixed(e.queries.p99_us, 1)},
        w);

  if (!out_path.empty()) {
    std::ofstream json(out_path);
    json << "{\n  \"mode\": \"" << (small ? "small" : "full")
         << "\",\n  \"topologies\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const Entry& e = entries[i];
      json << "    {\"family\": \"" << e.tc.family
           << "\", \"hosts\": " << e.tc.hosts
           << ", \"nodes\": " << e.tc.topo.node_count()
           << ", \"links\": " << e.tc.topo.link_count()
           << ", \"build_ms\": " << fixed(e.build_ms, 3)
           << ",\n     \"churn\": {\"events\": " << e.churn.events
           << ", \"inc_mean_us\": " << fixed(e.churn.inc_mean_us, 3)
           << ", \"oracle_mean_us\": " << fixed(e.churn.oracle_mean_us, 3)
           << ", \"ratio\": " << fixed(e.churn.ratio(), 4)
           << "},\n     \"queries\": {\"count\": " << e.queries.count
           << ", \"total_ms\": " << fixed(e.queries.total_ms, 2)
           << ", \"p50_us\": " << fixed(e.queries.p50_us, 2)
           << ", \"p99_us\": " << fixed(e.queries.p99_us, 2) << "}}"
           << (i + 1 < entries.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "\nwrote " << out_path << "\n";
  }

  if (!check) return 0;
  bool ok = true;
  for (const Entry& e : entries) {
    if (e.tc.family == "waxman" && e.tc.hosts == 256 &&
        e.churn.ratio() > 0.10) {
      std::cerr << "CHECK FAILED: waxman-256 incremental/oracle ratio "
                << fixed(e.churn.ratio(), 3) << " > 0.10\n";
      ok = false;
    }
    // Upper-only: 1.5x absorbs a slower machine, 20 us the scheduler
    // noise of p50s that are only a few microseconds.
    const double base_p50 = baseline_p50(baseline, e.tc.family, e.tc.hosts);
    if (base_p50 >= 0.0) {
      const double ceiling = base_p50 * 1.5 + 20.0;
      if (e.queries.p50_us > ceiling) {
        std::cerr << "CHECK FAILED: " << e.tc.family << "-" << e.tc.hosts
                  << " query p50 " << fixed(e.queries.p50_us, 1)
                  << " us above baseline ceiling " << fixed(ceiling, 1)
                  << " us\n";
        ok = false;
      }
    }
    if (e.tc.family == "fat_tree" && e.tc.hosts == 1024) {
      const double total_s = (e.build_ms + e.queries.total_ms) / 1e3;
      if (total_s > 5.0) {
        std::cerr << "CHECK FAILED: fat-tree-1024 build + 1000 queries "
                  << fixed(total_s, 2) << " s > 5 s\n";
        ok = false;
      }
    }
  }
  if (ok) std::cout << "checks passed\n";
  return ok ? 0 : 1;
}
