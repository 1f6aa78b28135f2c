#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "collector/network_model.hpp"
#include "util/error.hpp"
#include "util/ring_buffer.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

// GCC pairs the visible `new` expressions with the std::free inside the
// replaced operator delete and cannot see that the replaced operator new
// allocates with std::malloc; the pairing is correct by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
// Heap bytes requested, and the largest single request, while counting.
std::atomic<bool> g_count_bytes{false};
std::atomic<std::size_t> g_bytes{0};
std::atomic<std::size_t> g_largest{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_bytes.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(size, std::memory_order_relaxed);
    std::size_t largest = g_largest.load(std::memory_order_relaxed);
    while (size > largest &&
           !g_largest.compare_exchange_weak(largest, size,
                                            std::memory_order_relaxed)) {
    }
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace remos {
namespace {

/// Counts the heap bytes `body` requests and its largest single request.
template <typename F>
std::pair<std::size_t, std::size_t> heap_bytes(F&& body) {
  g_bytes = 0;
  g_largest = 0;
  g_count_bytes = true;
  body();
  g_count_bytes = false;
  return {g_bytes.load(), g_largest.load()};
}

TEST(RingBuffer, RejectsZeroCapacity) {
  EXPECT_THROW(RingBuffer<int>(0), InvalidArgument);
}

TEST(RingBuffer, FillsThenEvictsFifo) {
  RingBuffer<int> rb(3);
  EXPECT_TRUE(rb.empty());
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.front(), 1);
  EXPECT_EQ(rb.back(), 3);
  rb.push(4);  // evicts 1
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.front(), 2);
  EXPECT_EQ(rb.back(), 4);
  EXPECT_EQ(rb.to_vector(), (std::vector<int>{2, 3, 4}));
}

TEST(RingBuffer, IndexingIsOldestFirst) {
  RingBuffer<int> rb(4);
  for (int i = 0; i < 10; ++i) rb.push(i);
  EXPECT_EQ(rb[0], 6);
  EXPECT_EQ(rb[3], 9);
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> rb(2);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push(7);
  EXPECT_EQ(rb.front(), 7);
  EXPECT_EQ(rb.back(), 7);
}

TEST(RingBuffer, StorageGrowsOnDemandUpToCapacity) {
  RingBuffer<double> rb(1000);
  EXPECT_EQ(heap_bytes([&] { rb.push(1.0); }).first, sizeof(double));
  // Filling and wrapping never holds more than the capacity.
  const auto [bytes, largest] = heap_bytes([&] {
    for (int i = 0; i < 5000; ++i) rb.push(static_cast<double>(i));
  });
  EXPECT_LE(largest, 1000 * sizeof(double));
  EXPECT_EQ(rb.size(), 1000u);
  EXPECT_EQ(rb.front(), 4000.0);
  EXPECT_EQ(rb.back(), 4999.0);
}

TEST(RingBuffer, FreshLinkHistoryHoldsOnlyWhatItRecorded) {
  // A raw ring plus two rollup cascades: reserving every ring's capacity
  // up front cost 266,128 bytes per link before any sample arrived.
  const std::size_t bytes = heap_bytes([] {
                              collector::LinkHistory h;
                              h.record(collector::Sample{1.0, 2.0, 3.0});
                            }).first;
  EXPECT_LT(bytes, 4096u);
}

TEST(Strings, JoinAndSplitRoundTrip) {
  const std::vector<std::string> v{"m-1", "m-2", "m-3"};
  EXPECT_EQ(join(v, ","), "m-1,m-2,m-3");
  EXPECT_EQ(split("m-1,m-2,m-3", ','), v);
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(split("", ','), std::vector<std::string>{""});
}

TEST(Strings, FixedFormatsDecimals) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
  EXPECT_EQ(fixed(-0.456, 1), "-0.5");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcdef", 4), "abcdef");
}

TEST(Strings, NumberedJoinsIndicesWithDashes) {
  EXPECT_EQ(numbered("h", std::size_t{3}), "h3");
  EXPECT_EQ(numbered("t", 7), "t7");
  EXPECT_EQ(numbered("c", std::size_t{0}, std::size_t{12}), "c0-12");
  EXPECT_EQ(numbered("h", 1, 0, 2), "h1-0-2");
  EXPECT_EQ(numbered("victim-", 4), "victim-4");
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(mbps(100), 1e8);
  EXPECT_DOUBLE_EQ(to_mbps(mbps(42)), 42.0);
  EXPECT_DOUBLE_EQ(kbps(5), 5000.0);
  EXPECT_DOUBLE_EQ(millis(3), 0.003);
  // 1 MB at 8 Mbps takes 1 second.
  EXPECT_DOUBLE_EQ(transfer_time(1e6, mbps(8)), 1.0);
}

}  // namespace
}  // namespace remos
