// Weathermap: a terminal dashboard over the telemetry history plane.
//
// Runs the full deployment (simulator -> SNMP -> collector -> service)
// under a fault schedule while background traffic lights up the testbed,
// then renders what the history plane retained:
//
//   - per-link utilization timelines, ground truth ("sim.link.*", sampled
//     inside the simulator's integrator) against what the SNMP
//     measurement path reconstructed ("collector.link.*");
//   - the service's own series, one point per model-clock step: mean
//     latency, shed fraction, snapshot staleness;
//   - a long-horizon Timeframe::history read answered from rollup
//     buckets, with covered-span / truncation reporting;
//   - machine-readable blocks CI parses: the series CSV dump, the
//     Prometheus-style exposition (metrics + series window summary) and
//     the flight recorder as JSONL.
//
//   ./weathermap
#include <atomic>
#include <chrono>
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/harness.hpp"
#include "core/logical.hpp"
#include "core/predictor.hpp"
#include "netsim/traffic.hpp"
#include "obs/series_export.hpp"
#include "util/strings.hpp"

namespace {

using namespace remos;

constexpr Seconds kEnd = 90.0;  // model-time length of the run
constexpr std::size_t kCols = 60;

double finite_max(const std::vector<double>& vs) {
  double m = 0;
  for (double v : vs)
    if (std::isfinite(v)) m = std::max(m, v);
  return m;
}

/// The collector may have discovered a link in the opposite orientation
/// to the simulator's topology ("aspen~m-1" vs "m-1~aspen"); flipping a
/// key swaps the endpoints and the direction suffix.
std::string flipped_key(const std::string& key) {
  const std::size_t dot = key.rfind('.');
  const std::size_t tilde = key.find('~');
  if (dot == std::string::npos || tilde == std::string::npos) return key;
  const std::string a = key.substr(0, tilde);
  const std::string b = key.substr(tilde + 1, dot - tilde - 1);
  const std::string dir = key.substr(dot + 1);
  return b + "~" + a + "." + (dir == "ab" ? "ba" : "ab");
}

const obs::TimeSeries* find_measured(const obs::TimeSeriesStore& store,
                                     const std::string& key) {
  if (const obs::TimeSeries* ts = store.find("collector.link." + key))
    return ts;
  return store.find("collector.link." + flipped_key(key));
}

/// One "truth vs measured" row pair of the map.
void print_link_row(const std::string& key, const obs::TimeSeries& truth,
                    const obs::TimeSeries* measured, Seconds end) {
  const std::vector<double> t =
      obs::resample_mean(truth.raw(end, end), 0, end, kCols);
  std::cout << "  " << key << "\n";
  std::cout << "    truth    |" << obs::sparkline(t, 0.0, 1.0) << "| peak "
            << fixed(100.0 * finite_max(t), 0) << "%\n";
  if (measured && !measured->empty()) {
    const std::vector<double> m =
        obs::resample_mean(measured->raw(end, end), 0, end, kCols);
    std::cout << "    measured |" << obs::sparkline(m, 0.0, 1.0)
              << "| peak " << fixed(100.0 * finite_max(m), 0) << "%\n";
  } else {
    std::cout << "    measured |" << std::string(kCols, ' ')
              << "| (no samples)\n";
  }
}

void print_window(const char* label, const obs::WindowStats& w) {
  const Measurement& m = w.measurement;
  std::cout << "  " << label << ": covered " << fixed(w.covered, 0) << "/"
            << fixed(w.requested, 0) << " s ("
            << fixed(100.0 * w.coverage(), 0) << "%), "
            << (w.truncated ? "TRUNCATED" : "complete") << ", "
            << w.raw_samples << " raw + " << w.rollup_buckets
            << " rollup buckets\n"
            << "    quartiles [" << fixed(m.quartiles.min / 1e6, 1) << " "
            << fixed(m.quartiles.q1 / 1e6, 1) << " "
            << fixed(m.quartiles.median / 1e6, 1) << " "
            << fixed(m.quartiles.q3 / 1e6, 1) << " "
            << fixed(m.quartiles.max / 1e6, 1) << "] Mb/s, mean "
            << fixed(m.mean / 1e6, 1) << ", accuracy "
            << fixed(m.accuracy, 2) << "\n";
}

}  // namespace

int main() {
  apps::CmuHarness harness;
  snmp::FaultInjector& fx = harness.fault_injector();
  fx.loss_burst({20.0, 35.0}, 0.30);
  fx.crash(snmp::agent_address("timberline"), {45.0, 60.0});
  harness.start(6.0);

  // Background traffic so the map has weather: two CBR streams crossing
  // the backbone plus one long bulk transfer.
  netsim::CbrTraffic cbr1(harness.sim(), "m-1", "m-8", mbps(30), 4.0);
  netsim::CbrTraffic cbr2(harness.sim(), "m-5", "m-2", mbps(15), 6.0);
  netsim::FlowOptions bulk;
  bulk.volume = 400e6;  // ~400 MB, keeps a flow alive most of the run
  harness.sim().start_flow("m-3", "m-6", bulk);

  service::QueryService::Options so;
  so.workers = 2;
  so.queue_capacity = 16;
  so.poll_interval = std::chrono::milliseconds(2);
  auto service = harness.serve(so);

  // Two light clients keep the service series populated for the run.
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<std::string>& hosts = harness.hosts();
      std::size_t i = 0;
      while (service->model_now() < kEnd) {
        service::GraphQuery q;
        q.nodes = {hosts[i % hosts.size()],
                   hosts[(i + 3 + static_cast<std::size_t>(c)) %
                         hosts.size()]};
        q.timeframe = core::Timeframe::history(20.0);
        (void)service->get_graph(std::move(q));
        ++i;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  service->stop();

  const obs::TimeSeriesStore& store = harness.series();
  const Seconds end = service->model_now();

  std::cout << "remos weathermap -- simulated CMU testbed, model time 0.."
            << fixed(end, 0) << " s\n"
            << "faults: 30% loss burst @ [20,35)s, timberline crash @ "
               "[45,60)s\n"
            << "timeline: " << kCols << " columns, "
            << fixed(end / static_cast<double>(kCols), 1)
            << " s/col, utilization scaled to [0,100%]\n\n";

  // Per-link truth-vs-measured rows, busiest first; quiet links elided.
  std::cout << "link utilization (ground truth vs SNMP-measured):\n";
  std::size_t shown = 0, quiet = 0;
  for (const std::string& name : store.names()) {
    const std::string prefix = "sim.link.";
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string key = name.substr(prefix.size());
    const obs::TimeSeries* truth = store.find(name);
    const obs::WindowStats w = truth->window(end, end);
    if (w.measurement.quartiles.max < 0.01) {
      ++quiet;
      continue;
    }
    print_link_row(key, *truth, find_measured(store, key), end);
    ++shown;
  }
  std::cout << "  (" << shown << " active directions shown, " << quiet
            << " quiet elided)\n\n";

  // Service-plane series.
  std::cout << "service plane:\n";
  if (const obs::TimeSeries* lat = store.find("service.latency_ms")) {
    const std::vector<double> v =
        obs::resample_mean(lat->raw(end, end), 0, end, kCols);
    const obs::WindowStats w = lat->window(end, end);
    std::cout << "  latency ms |"
              << obs::sparkline(v, 0.0, std::max(1.0, finite_max(v)))
              << "| median " << fixed(w.measurement.quartiles.median, 2)
              << " ms over " << w.raw_samples << " raw + "
              << w.rollup_buckets << " buckets\n";
  }
  if (const obs::TimeSeries* shed = store.find("service.shed")) {
    const obs::WindowStats w = shed->window(end, end);
    std::cout << "  shed fraction " << fixed(w.measurement.mean, 3)
              << " over " << shed->total_samples() << " steps\n";
  }
  if (const obs::TimeSeries* stale = store.find("service.staleness")) {
    const obs::WindowStats w = stale->window(end, end);
    std::cout << "  snapshot staleness s: median "
              << fixed(w.measurement.quartiles.median, 2) << ", max "
              << fixed(w.measurement.quartiles.max, 2) << "\n";
  }
  std::cout << "\n";

  // Long-horizon reads against one busy link's LinkHistory: a window the
  // raw ring covers, and one far beyond every retained datum -- the
  // second reports its covered span and a coverage-discounted accuracy
  // instead of silently answering from the tail.
  const collector::ModelLink* busy = nullptr;
  for (const collector::ModelLink& l : harness.collector().model().links())
    if (!l.history.empty() &&
        (!busy || l.history.size() > busy->history.size()))
      busy = &l;
  if (busy) {
    std::cout << "long-horizon history reads, link " << busy->a << "~"
              << busy->b << " (a->b):\n";
    print_window("window 60 s ",
                 busy->history.used_windowed(end, 60.0, true));
    print_window("window 600 s",
                 busy->history.used_windowed(end, 600.0, true));
    std::cout << "  history memory: " << busy->history.memory_bytes()
              << " bytes (bounded: raw ring + sealed rollup rings)\n\n";
  }

  std::cout << "series store: " << store.size() << " series, "
            << store.memory_bytes() << " bytes retained\n\n";

  // Machine-readable blocks (CI parses each one).
  std::cout << "--- series csv ---\n";
  obs::dump_series_csv(store, std::cout);
  std::cout << "--- end series csv ---\n\n";

  std::cout << "--- metrics ---\n"
            << harness.metrics().render()
            << obs::render_series_exposition(store, end, end)
            << "--- end metrics ---\n\n";

  std::cout << "--- events jsonl ---\n"
            << harness.recorder().dump_jsonl() << "--- end events jsonl ---\n";

  // Self-check: the run must have populated every plane's series.
  const char* required[] = {"service.latency_ms", "service.shed",
                            "service.staleness"};
  for (const char* name : required) {
    const obs::TimeSeries* ts = store.find(name);
    if (!ts || ts->empty()) {
      std::cerr << "weathermap: FAIL: series " << name << " is empty\n";
      return 1;
    }
  }
  std::size_t sim_pts = 0, coll_pts = 0;
  for (const std::string& name : store.names()) {
    const obs::TimeSeries* ts = store.find(name);
    if (name.rfind("sim.link.", 0) == 0) sim_pts += ts->total_samples();
    if (name.rfind("collector.link.", 0) == 0)
      coll_pts += ts->total_samples();
  }
  if (sim_pts == 0 || coll_pts == 0) {
    std::cerr << "weathermap: FAIL: link series empty (sim " << sim_pts
              << ", collector " << coll_pts << ")\n";
    return 1;
  }
  std::cout << "\nweathermap: OK (" << sim_pts << " ground-truth and "
            << coll_pts << " measured link samples retained)\n";
  return 0;
}
