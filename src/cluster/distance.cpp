#include "cluster/distance.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace remos::cluster {

DistanceMatrix::DistanceMatrix(const core::NetworkGraph& graph,
                               std::vector<std::string> nodes,
                               DistanceOptions options)
    : names_(std::move(nodes)) {
  if (names_.empty()) throw InvalidArgument("DistanceMatrix: no nodes");
  std::sort(names_.begin(), names_.end());
  if (std::adjacent_find(names_.begin(), names_.end()) != names_.end())
    throw InvalidArgument("DistanceMatrix: duplicate node");
  for (const std::string& n : names_) {
    if (!graph.node(n).is_compute)
      throw InvalidArgument("DistanceMatrix: " + n + " is not a compute node");
  }

  const std::size_t n = names_.size();
  distance_.assign(n * n, 0.0);
  // One route tree per node (n kernel rows), then O(path) work per
  // pair -- the whole point of deriving distances from a topology query.
  std::vector<core::RouteTree> trees;
  trees.reserve(n);
  for (const std::string& name : names_) trees.push_back(graph.routes_from(name));

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      // Distance is symmetric-ified: the worse of the two directions
      // (synchronous phases wait for the slowest direction anyway).
      double d = 0;
      const auto fwd_path = trees[i].path_to(names_[j]);
      const auto rev_path = trees[j].path_to(names_[i]);
      const BitsPerSec fwd =
          fwd_path ? graph.bottleneck_available_on(*fwd_path) : 0;
      const BitsPerSec rev =
          rev_path ? graph.bottleneck_available_on(*rev_path) : 0;
      const BitsPerSec bw = std::min(fwd, rev);
      if (bw <= 0) {
        d = std::numeric_limits<double>::infinity();
      } else {
        d = options.bandwidth_weight * (1e8 / bw);
        if (options.latency_weight > 0)
          d += options.latency_weight * graph.path_latency_on(*fwd_path);
      }
      distance_[i * n + j] = d;
      distance_[j * n + i] = d;
    }
  }
}

double DistanceMatrix::at(std::size_t i, std::size_t j) const {
  if (i >= names_.size() || j >= names_.size())
    throw InvalidArgument("DistanceMatrix::at: index out of range");
  return distance_[i * names_.size() + j];
}

double DistanceMatrix::at(const std::string& a, const std::string& b) const {
  return at(index_of(a), index_of(b));
}

std::size_t DistanceMatrix::index_of(const std::string& name) const {
  const auto it = std::lower_bound(names_.begin(), names_.end(), name);
  if (it == names_.end() || *it != name)
    throw NotFoundError("DistanceMatrix: unknown node " + name);
  return static_cast<std::size_t>(it - names_.begin());
}

std::string DistanceMatrix::to_string() const {
  std::ostringstream os;
  os << pad_right("", 8);
  for (const std::string& n : names_) os << pad_left(n, 8);
  os << "\n";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    os << pad_right(names_[i], 8);
    for (std::size_t j = 0; j < names_.size(); ++j)
      os << pad_left(fixed(at(i, j), 2), 8);
    os << "\n";
  }
  return os.str();
}

}  // namespace remos::cluster
