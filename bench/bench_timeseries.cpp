// Telemetry history plane bench: the costs the design promises to bound.
//
//   append        ns per TimeSeries::append on a long-lived series (raw
//                 ring full, rollup cascade active) -- the poll/publish
//                 hot-path cost.
//   read @ 1h     p50 of a stitched window() read over a 1-hour horizon
//                 on a series holding 2 h of 2 s samples (raw ring far
//                 exceeded, so the read is answered from rollups).
//   memory        retained bytes of one series after 24 h of 2 s samples
//                 (43200 appends) -- must be bounded by the ring + rollup
//                 capacities, not by the sample count.
//   service p50   the bench_service Phase C measurement
//                 (bench/obs_overhead.hpp): the capacity workload with
//                 the telemetry plane wired vs every sink a no-op, the
//                 median of 5 alternating pairs of 4 x 20,000-query
//                 passes timed in ns.  Budget: the wired p50 overhead
//                 <= 5%; hard fail above 15% so shared-runner noise
//                 cannot flake CI.  The append cost itself must also be
//                 <= 5% of the bare service p50.
//
// Results go to BENCH_obs.json for CI trend tracking.
#include <chrono>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/obs_overhead.hpp"
#include "obs/timeseries.hpp"

namespace {

using namespace remos;
using Clock = std::chrono::steady_clock;

/// ns per append on a series whose raw ring is already full and whose
/// rollup cascade is sealing buckets -- steady state, not warmup.
double bench_append_ns() {
  obs::TimeSeries ts;
  Seconds t = 0;
  for (int i = 0; i < 10000; ++i) ts.append(t += 2.0, 0.5);  // warm up
  constexpr int kN = 1'000'000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kN; ++i)
    ts.append(t += 2.0, static_cast<double>(i % 97));
  const auto dt = std::chrono::duration<double, std::nano>(
      Clock::now() - t0);
  return dt.count() / kN;
}

/// p50 (us) of window() at a 1 h horizon over 2 h of 2 s samples: the
/// raw ring covers ~8.5 min, so the read stitches rollup buckets.
std::uint64_t bench_read_1h_p50_us() {
  obs::TimeSeries ts;
  Seconds t = 0;
  for (int i = 0; i < 3600; ++i) ts.append(t += 2.0, 0.25);
  std::vector<std::uint64_t> us;
  us.reserve(2000);
  for (int i = 0; i < 2000; ++i) {
    const auto t0 = Clock::now();
    const obs::WindowStats w = ts.window(t, 3600.0);
    const auto dt = std::chrono::duration_cast<std::chrono::microseconds>(
        Clock::now() - t0);
    us.push_back(static_cast<std::uint64_t>(dt.count()));
    if (w.measurement.samples == 0) std::abort();  // read must see data
  }
  return bench::percentile(us, 0.50);
}

/// Retained bytes after 24 h of 2 s samples: bounded by capacities.
std::size_t bench_memory_24h() {
  obs::TimeSeries ts;
  Seconds t = 0;
  for (int i = 0; i < 43200; ++i) ts.append(t += 2.0, 0.5);
  return ts.memory_bytes();
}

}  // namespace

int main() {
  using bench::row;
  using bench::rule;

  std::cout << "Telemetry history plane: append / read / memory / "
               "end-to-end overhead\n\n";

  const double append_ns = bench_append_ns();
  const std::uint64_t read_p50_us = bench_read_1h_p50_us();
  const std::size_t mem_bytes = bench_memory_24h();
  const bench::ObsOverhead obs = bench::measure_obs_overhead();
  const double bare_p50_us = static_cast<double>(obs.bare.p50_ns) * 1e-3;
  const double wired_p50_us = static_cast<double>(obs.wired.p50_ns) * 1e-3;
  const double overhead = obs.median;
  const double append_vs_p50 =
      obs.bare.p50_ns == 0
          ? 0.0
          : append_ns / static_cast<double>(obs.bare.p50_ns);

  const std::vector<int> w{26, 14};
  row({"metric", "value"}, w);
  rule(w);
  row({"append", fixed(append_ns, 1) + " ns"}, w);
  row({"window() read @ 1h p50", std::to_string(read_p50_us) + " us"}, w);
  row({"series memory @ 24h", std::to_string(mem_bytes) + " B"}, w);
  row({"service p50 (obs off)", fixed(bare_p50_us, 2) + " us"}, w);
  row({"service p50 (obs wired)", fixed(wired_p50_us, 2) + " us"}, w);
  row({"wired p50 overhead", fixed(overhead * 100, 1) + "%"}, w);
  row({"append / bare p50", fixed(append_vs_p50 * 100, 2) + "%"}, w);
  std::cout << "\n(budgets: append <= 5% of service p50; wired overhead "
               "<= 5% target, 15% hard fail)\n";

  std::ofstream json("BENCH_obs.json");
  json << "{\n"
       << "  \"append_ns\": " << fixed(append_ns, 1) << ",\n"
       << "  \"read_1h_p50_us\": " << read_p50_us << ",\n"
       << "  \"series_memory_24h_bytes\": " << mem_bytes << ",\n"
       << "  \"service_p50_bare_us\": " << fixed(bare_p50_us, 3) << ",\n"
       << "  \"service_p50_wired_us\": " << fixed(wired_p50_us, 3) << ",\n"
       << "  \"wired_p50_overhead\": " << fixed(overhead, 4) << ",\n"
       << "  \"append_vs_bare_p50\": " << fixed(append_vs_p50, 6) << "\n"
       << "}\n";
  std::cout << "\nwrote BENCH_obs.json\n";

  // Memory must be bounded by capacities (raw ring 256 x 16 B plus the
  // two default rollup rings at ~72 B/bucket), far below the ~676 KB a
  // naive 43200-sample retention would cost.
  const bool mem_ok = mem_bytes < 256 * 1024;
  const bool ok = append_vs_p50 <= 0.05 && overhead <= 0.15 && mem_ok &&
                  obs.bare.p50_ns > 0 && obs.wired.p50_ns > 0 &&
                  obs.failed == 0;
  if (!ok) std::cerr << "BENCH_obs: budget violated\n";
  return ok ? 0 : 1;
}
