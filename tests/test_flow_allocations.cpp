// Heap-allocation work counters for the flow path.
//
// A warm flow_info (clock set, rows memoized) should allocate per query
// and per vector, not per link it keeps or per flow it answers: the
// build annotates links without summarizing through a vector, names
// nothing, and the solver assembles each answer's quartiles in place.
// The whole binary's operator new is instrumented with a gated counter
// (as in test_maxmin_differential.cpp).  Counts do not depend on the
// machine, so the ceilings below can be tight: they sit a little above
// what the flow path makes (67 and 100 at worst on these queries), so
// an allocation per kept link or per answered flow breaks them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "collector/network_model.hpp"
#include "core/modeler.hpp"
#include "netsim/generators.hpp"
#include "util/rng.hpp"

// GCC pairs the visible `new` expressions with the std::free inside the
// replaced operator delete and cannot see that the replaced operator new
// allocates with std::malloc; the pairing is correct by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace remos::core {
namespace {

/// Heap allocations `body` makes.
template <typename F>
std::uint64_t allocations(F&& body) {
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  body();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}

/// The benchmark's model of a topology: one quiet sample per link.
collector::NetworkModel model_of(const netsim::Topology& topo) {
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

std::vector<std::string> hosts_of(const netsim::Topology& topo) {
  std::vector<std::string> hosts;
  for (const netsim::NodeId id : topo.compute_nodes())
    hosts.push_back(topo.name_of(id));
  return hosts;
}

/// A warm query's allocations: the first call memoizes its rows.
template <typename F>
std::uint64_t warm_allocations(F&& query) {
  query();
  return allocations(query);
}

class FlowAllocations : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    netsim::FatTreeParams p;
    p.k = 16;  // 1024 hosts
    fat_tree_ = new netsim::Topology(netsim::make_fat_tree(p));
    fat_model_ = new collector::NetworkModel(model_of(*fat_tree_));
  }
  static void TearDownTestSuite() {
    delete fat_model_;
    delete fat_tree_;
  }

  static netsim::Topology* fat_tree_;
  static collector::NetworkModel* fat_model_;
};

netsim::Topology* FlowAllocations::fat_tree_ = nullptr;
collector::NetworkModel* FlowAllocations::fat_model_ = nullptr;

TEST_F(FlowAllocations, NoAllocationPerKeptLink) {
  // Same edge switch: the build keeps 2 links and 3 nodes and hides 1
  // router.  Across pods: 6 links, 7 nodes, 5 routers.  Both answer one
  // flow over one logical link, so only the build's three growing
  // vectors may allocate more, each by its extra doubling steps:
  // 2 -> 6 kept links +2, 3 -> 7 kept nodes +1, 1 -> 5 hidden routers +3.
  constexpr std::uint64_t kVectorGrowth = 6;
  Modeler m(*fat_model_);
  m.set_clock([] { return 1.0; });
  const auto pair = [&](const char* src, const char* dst) {
    FlowQuery q;
    q.fixed = {FlowRequest{src, dst, mbps(5)}};
    return warm_allocations([&] { (void)m.flow_info(q); });
  };
  const std::uint64_t same_edge = pair("h0-0-0", "h0-0-1");
  const std::uint64_t cross_pod = pair("h0-0-0", "h15-7-7");
  const std::uint64_t cross_pod_back = pair("h15-7-7", "h0-0-0");
  EXPECT_LE(cross_pod, same_edge + kVectorGrowth)
      << "same edge " << same_edge << ", across pods " << cross_pod;
  EXPECT_EQ(cross_pod, cross_pod_back);
}

TEST_F(FlowAllocations, BatchOfEightPairsStaysUnderItsCeiling) {
  // The benchmark's fattree1024_batch8 shape: a shared batch of 8 pairs,
  // one 16-endpoint build and solve.
  constexpr std::uint64_t kCeiling = 80;
  Modeler m(*fat_model_);
  m.set_clock([] { return 1.0; });
  const std::vector<std::string> hosts = hosts_of(*fat_tree_);
  Rng rng(0xa110c8);
  std::uint64_t worst = 0;
  for (int rep = 0; rep < 20; ++rep) {
    FlowBatchQuery batch;
    batch.mode = FlowBatchQuery::Mode::kShared;
    for (int i = 0; i < 8; ++i) {
      const std::size_t a = rng.below(hosts.size());
      const std::size_t b = (a + 1 + rng.below(hosts.size() - 1)) %
                            hosts.size();
      FlowQuery q;
      q.fixed = {FlowRequest{hosts[a], hosts[b], mbps(5)}};
      batch.queries.push_back(q);
    }
    worst = std::max(
        worst, warm_allocations([&] { (void)m.flow_info_batch(batch); }));
  }
  EXPECT_LE(worst, kCeiling);
}

TEST(FlowAllocationsWaxman, CollectiveStaysUnderItsCeiling) {
  // The benchmark's waxman1024_collective shape: a 6-host all-to-all of
  // 30 variable flows.
  constexpr std::uint64_t kCeiling = 120;
  netsim::WaxmanParams p;
  p.hosts = 1024;
  p.routers = 256;
  p.seed = 7;
  const netsim::Topology topo = netsim::make_waxman(p);
  const collector::NetworkModel model = model_of(topo);
  Modeler m(model);
  m.set_clock([] { return 1.0; });
  const std::vector<std::string> hosts = hosts_of(topo);
  Rng rng(0xc011ec7);
  std::uint64_t worst = 0;
  for (int rep = 0; rep < 10; ++rep) {
    std::vector<std::string> group;
    while (group.size() < 6) {
      const std::string& h = hosts[rng.below(hosts.size())];
      if (std::find(group.begin(), group.end(), h) == group.end())
        group.push_back(h);
    }
    FlowQuery q;
    for (const std::string& a : group)
      for (const std::string& b : group)
        if (a != b)
          q.variable.push_back(
              {a, b, mbps(static_cast<double>(1 + rng.below(4)))});
    worst = std::max(worst, warm_allocations([&] { (void)m.flow_info(q); }));
  }
  EXPECT_LE(worst, kCeiling);
}

}  // namespace
}  // namespace remos::core
