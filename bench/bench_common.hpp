// Shared helpers for the experiment benches: fixed-width table printing
// and the standard Table-2/3 traffic blast.
//
// Each bench binary regenerates one table or figure of the paper and
// prints the paper's reported value next to the measured one, so the
// reproduction quality is visible in the output itself (EXPERIMENTS.md
// records a snapshot).
#pragma once

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "netsim/traffic.hpp"
#include "util/strings.hpp"

namespace remos::bench {

/// Prints one table row of right-aligned columns.
inline void row(const std::vector<std::string>& cells,
                const std::vector<int>& widths) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i)
    line += pad_left(cells[i], static_cast<std::size_t>(widths[i])) + "  ";
  std::cout << line << "\n";
}

inline void rule(const std::vector<int>& widths) {
  std::size_t total = 0;
  for (int w : widths) total += static_cast<std::size_t>(w) + 2;
  std::cout << std::string(total, '-') << "\n";
}

/// The synthetic competing program of §8.2: "generates significant
/// traffic between nodes m-6 and m-8".  A 95 Mbps constant source with a
/// very high max-min weight models the non-backing-off 1998 blaster: it
/// holds its full 95 Mbps even when half a dozen TCP-like application
/// flows share the link (they split the remaining ~5 Mbps), which is
/// what produces the paper's 79-194% penalties in Table 2.
inline std::unique_ptr<netsim::CbrTraffic> external_traffic(
    netsim::Simulator& sim, const std::string& src = "m-6",
    const std::string& dst = "m-8") {
  return std::make_unique<netsim::CbrTraffic>(sim, src, dst, mbps(95),
                                              120.0, "external");
}

/// A paper-reported value in parentheses, as the tables print it.  Takes
/// the string by reference: GCC 12 at -O3 reports a false -Wrestrict on
/// `"(" + fixed(...)`, where the right-hand side is a temporary.
inline std::string parenthesized(const std::string& value) {
  return "(" + value + ")";
}

/// The p-quantile of `v` (sorted in place), by the nearest lower rank; 0
/// when empty.
inline std::uint64_t percentile(std::vector<std::uint64_t>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = std::min(
      v.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(v.size())));
  return v[idx];
}

/// Percent increase of b over a, formatted like the paper's tables.
inline std::string pct_increase(double a, double b) {
  return fixed((b - a) / a * 100.0, 0);
}

}  // namespace remos::bench
