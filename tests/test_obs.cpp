// The observability subsystem: metrics registry, span traces and the
// flight recorder.
//
// The registry's contract is the one every plane leans on: handle
// resolution is idempotent and mutex-protected, recording through a
// handle is lock-free and thread-safe (the 8-thread hammer below is the
// TSan witness), and render() emits well-formed Prometheus text
// exposition.  Null handles are no-op sinks, so unwired components cost
// one branch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace remos::obs {
namespace {

// --- MetricsRegistry: handles and values ---

TEST(Metrics, DefaultHandlesAreNoOpSinks) {
  Counter c;
  Gauge g;
  Histogram h;
  c.inc();
  g.set(5.0);
  g.add(1.0);
  h.observe(0.1);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_FALSE(static_cast<bool>(g));
  EXPECT_FALSE(static_cast<bool>(h));
}

TEST(Metrics, ResolutionIsIdempotentAndSharesCells) {
  MetricsRegistry reg;
  Counter a = reg.counter("remos_test_total", {{"k", "v"}});
  Counter b = reg.counter("remos_test_total", {{"k", "v"}});
  a.inc(3);
  b.inc(2);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 5u);
  // A different label set is a different series.
  Counter other = reg.counter("remos_test_total", {{"k", "w"}});
  EXPECT_EQ(other.value(), 0u);
  EXPECT_EQ(reg.series_count(), 2u);
}

TEST(Metrics, KindMismatchAndBadNamesThrow) {
  MetricsRegistry reg;
  reg.counter("remos_test_total");
  EXPECT_THROW(reg.gauge("remos_test_total"), InvalidArgument);
  EXPECT_THROW(reg.histogram("remos_test_total", {1.0}), InvalidArgument);
  EXPECT_THROW(reg.counter("0bad"), InvalidArgument);
  EXPECT_THROW(reg.counter("has space"), InvalidArgument);
  EXPECT_THROW(reg.counter("ok_name", {{"bad label", "v"}}),
               InvalidArgument);
  // Histograms demand sorted, non-empty bounds, identical across a
  // family.
  EXPECT_THROW(reg.histogram("remos_h", {}), InvalidArgument);
  EXPECT_THROW(reg.histogram("remos_h", {2.0, 1.0}), InvalidArgument);
  reg.histogram("remos_h", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("remos_h", {1.0, 3.0}), InvalidArgument);
}

TEST(Metrics, GaugeMovesBothWays) {
  MetricsRegistry reg;
  Gauge g = reg.gauge("remos_depth");
  g.add(3.0);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  g.set(-7.5);
  EXPECT_DOUBLE_EQ(g.value(), -7.5);
}

// --- Histogram bucket boundaries ---

TEST(Metrics, HistogramBucketBoundariesAreLeInclusive) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("remos_lat_seconds", {0.1, 1.0, 10.0});
  h.observe(0.1);   // == bound: first bucket (le is inclusive)
  h.observe(0.05);  // first bucket
  h.observe(0.5);   // second
  h.observe(1.0);   // == bound: second
  h.observe(5.0);   // third
  h.observe(100.0); // overflow (+Inf)
  EXPECT_EQ(h.count(), 6u);
  EXPECT_NEAR(h.sum(), 106.65, 1e-9);
  // Quantiles report the matched bucket's upper bound (conservative);
  // the overflow bucket reports the largest finite bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.1);
  EXPECT_DOUBLE_EQ(h.quantile(0.3), 0.1);   // 2 of 6 in the first bucket
  EXPECT_DOUBLE_EQ(h.quantile(0.6), 1.0);   // 4 of 6 at or under 1.0
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);  // overflow reports last bound
}

// --- Concurrency: the TSan witness for lock-free recording ---

TEST(Metrics, ConcurrentRecordingFromEightThreadsLosesNothing) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Half the threads resolve their own handles mid-flight, so
      // resolution races recording as it would in a live service.
      Counter c = reg.counter("remos_conc_total");
      Gauge g = reg.gauge("remos_conc_depth");
      Histogram h =
          reg.histogram("remos_conc_seconds", {0.001, 0.01, 0.1, 1.0});
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        g.add(1.0);
        g.add(-1.0);
        h.observe(0.001 * (t + 1));
        if (i % 1024 == 0)
          reg.counter("remos_conc_total").inc(0);  // re-resolve race
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.counter("remos_conc_total").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(reg.gauge("remos_conc_depth").value(), 0.0);
  EXPECT_EQ(reg.histogram("remos_conc_seconds", {0.001, 0.01, 0.1, 1.0})
                .count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Histogram, ConcurrentObservesMatchSerialOnes) {
  // Dyadic values add exactly in any order, so the shards' totals must
  // equal a serial registry's to the last bit: count, sum, every
  // quantile and the exposition text.
  const std::vector<double> bounds{0.125, 0.5, 2.0, 8.0};
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5'000;
  const auto value = [](int t, int i) {
    return static_cast<double>((t * 7 + i) % 40) * 0.25;
  };
  MetricsRegistry concurrent, serial;
  Histogram h = concurrent.histogram("remos_shard_seconds", bounds);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, &value, t] {
      for (int i = 0; i < kPerThread; ++i) h.observe(value(t, i));
    });
  for (std::thread& t : threads) t.join();
  Histogram ref = serial.histogram("remos_shard_seconds", bounds);
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i) ref.observe(value(t, i));

  EXPECT_EQ(h.count(), ref.count());
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.sum(), ref.sum());
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0})
    EXPECT_EQ(h.quantile(q), ref.quantile(q)) << "q " << q;
  EXPECT_EQ(concurrent.render(), serial.render());
}

// --- Exposition format ---

TEST(Metrics, RenderEmitsPrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("remos_b_total", {{"status", "ok"}}, "Outcomes").inc(3);
  reg.counter("remos_b_total", {{"status", "err"}}, "Outcomes").inc(1);
  reg.gauge("remos_a_depth", {}, "Queue depth").set(2.0);
  Histogram h = reg.histogram("remos_c_seconds", {0.1, 1.0}, {}, "Latency");
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);

  const std::string text = reg.render();
  const std::string expected =
      "# HELP remos_a_depth Queue depth\n"
      "# TYPE remos_a_depth gauge\n"
      "remos_a_depth 2\n"
      "# HELP remos_b_total Outcomes\n"
      "# TYPE remos_b_total counter\n"
      "remos_b_total{status=\"err\"} 1\n"
      "remos_b_total{status=\"ok\"} 3\n"
      "# HELP remos_c_seconds Latency\n"
      "# TYPE remos_c_seconds histogram\n"
      "remos_c_seconds_bucket{le=\"0.1\"} 1\n"
      "remos_c_seconds_bucket{le=\"1\"} 2\n"
      "remos_c_seconds_bucket{le=\"+Inf\"} 3\n"
      "remos_c_seconds_sum 5.55\n"
      "remos_c_seconds_count 3\n";
  EXPECT_EQ(text, expected);
}

TEST(Metrics, RenderEscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("remos_esc_total", {{"msg", "a\"b\\c\nd"}}).inc();
  const std::string text = reg.render();
  EXPECT_NE(text.find("msg=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

// --- Span trees ---

TEST(Trace, ScopedSpansNestAndTakeClosesTheTree) {
  TraceBuilder tb;
  {
    TraceBuilder::Scoped outer(&tb, "solve");
    {
      TraceBuilder::Scoped inner(&tb, "route_resolution");
    }
    { TraceBuilder::Scoped inner2(&tb, "maxmin_solve"); }
  }
  tb.add_complete("admission", 0, 42);
  const SpanTree tree = tb.take();
  ASSERT_EQ(tree.spans.size(), 4u);
  EXPECT_EQ(tree.spans[0].name, "solve");
  EXPECT_EQ(tree.spans[0].parent, -1);
  EXPECT_EQ(tree.spans[1].name, "route_resolution");
  EXPECT_EQ(tree.spans[1].parent, 0);
  EXPECT_EQ(tree.spans[2].name, "maxmin_solve");
  EXPECT_EQ(tree.spans[2].parent, 0);
  EXPECT_EQ(tree.spans[3].name, "admission");
  EXPECT_EQ(tree.spans[3].parent, -1);
  EXPECT_EQ(tree.spans[3].duration_us, 42u);
  // Children start no earlier than their parent.
  EXPECT_GE(tree.spans[1].start_us, tree.spans[0].start_us);
  // The render names every span.
  const std::string text = tree.render();
  EXPECT_NE(text.find("route_resolution"), std::string::npos);
}

TEST(Trace, NullBuilderIsANoOp) {
  TraceBuilder* none = nullptr;
  TraceBuilder::Scoped s(none, "anything");  // must not crash
  SUCCEED();
}

TEST(Trace, TakeClosesStillOpenSpans) {
  TraceBuilder tb;
  const std::size_t idx = tb.open("left_open");
  (void)idx;
  const SpanTree tree = tb.take();
  ASSERT_EQ(tree.spans.size(), 1u);
  EXPECT_EQ(tree.spans[0].name, "left_open");
}

// --- Flight recorder ---

TEST(Recorder, KeepsOrderAndWrapsAround) {
  FlightRecorder rec(4);
  EXPECT_EQ(rec.capacity(), 4u);
  for (int i = 0; i < 10; ++i)
    rec.record(EventSeverity::kInfo, "test", "tick", std::to_string(i),
               static_cast<Seconds>(i));
  EXPECT_EQ(rec.total(), 10u);
  const std::vector<Event> window = rec.dump();
  ASSERT_EQ(window.size(), 4u);
  // Oldest-to-newest, and only the newest four survive the wrap.
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].detail, std::to_string(6 + i));
    EXPECT_EQ(window[i].seq, 6 + i);
    EXPECT_DOUBLE_EQ(window[i].model_time, static_cast<double>(6 + i));
  }
  // dump_text mentions the component/kind and severities.
  const std::string text = rec.dump_text();
  EXPECT_NE(text.find("test/tick"), std::string::npos);
}

TEST(Recorder, RejectsZeroCapacity) {
  EXPECT_THROW(FlightRecorder(0), InvalidArgument);
}

TEST(Recorder, ConcurrentRecordingIsSafe) {
  FlightRecorder rec(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&rec] {
      for (int i = 0; i < 1000; ++i)
        rec.record(EventSeverity::kInfo, "test", "spin", "x");
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(rec.total(), 4000u);
  EXPECT_EQ(rec.dump().size(), 64u);
}

// --- Status vocabulary ---

TEST(Status, EveryEnumHasAStableLabel) {
  EXPECT_STREQ(to_string(QueryStatus::kAnswered), "answered");
  EXPECT_STREQ(to_string(QueryStatus::kStale), "stale");
  EXPECT_STREQ(to_string(QueryStatus::kDegraded), "degraded");
  EXPECT_STREQ(to_string(QueryStatus::kOverloaded), "overloaded");
  EXPECT_STREQ(to_string(QueryStatus::kExpired), "expired");
  EXPECT_STREQ(to_string(QueryStatus::kError), "error");
  EXPECT_STREQ(to_string(AgentHealth::kHealthy), "healthy");
  EXPECT_STREQ(to_string(AgentHealth::kDegraded), "degraded");
  EXPECT_STREQ(to_string(AgentHealth::kUnreachable), "unreachable");
  EXPECT_STREQ(to_string(BreakerState::kClosed), "closed");
  EXPECT_STREQ(to_string(BreakerState::kOpen), "open");
  EXPECT_STREQ(to_string(BreakerState::kHalfOpen), "half-open");
  EXPECT_STREQ(to_string(GraphStatus::kOk), "ok");
  EXPECT_STREQ(to_string(GraphStatus::kPartial), "partial");
  EXPECT_STREQ(to_string(GraphStatus::kUnresolved), "unresolved");
  EXPECT_STREQ(to_string(GraphStatus::kInvalid), "invalid");
  EXPECT_STREQ(to_string(EventSeverity::kWarn), "warn");
}

}  // namespace
}  // namespace remos::obs
