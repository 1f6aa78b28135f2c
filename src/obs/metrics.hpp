// Metrics registry: named counters, gauges and fixed-bucket histograms
// with lock-free hot-path updates and a Prometheus-style text exposition.
//
// Design: a registry is a catalogue of *families* (one per metric name),
// each holding one *series* per distinct label set.  Resolving a handle
// (counter()/gauge()/histogram()) takes the registry mutex once and
// returns a small value object pointing at heap cells that live as long
// as the registry; recording through a handle is a relaxed atomic
// operation with no lock and no allocation, so components resolve their
// handles at wiring time and increment on the hot path for ~one
// fetch_add.  Histograms spread their cells over per-thread shards, so
// concurrent observers write disjoint cache lines; reads sum the shards.
// A default-constructed handle is a no-op sink, so
// instrumented code runs unchanged when observability is not wired.
// Components whose Stats report counts keep counting when unwired: they
// resolve those counters against a registry they own, and wiring
// re-points the handles at the deployment's registry, so each event is
// counted in exactly one cell.
//
// Resolution is idempotent: asking for the same (name, labels) returns a
// handle onto the same cells, which is also how tests and scrapers read
// values back.  Asking for the same name with a different metric kind
// (or a histogram with different buckets) throws InvalidArgument --
// families keep one shape for their whole life, as Prometheus requires.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace remos::obs {

/// Label set attached to one series, e.g. {{"status", "answered"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// `labels` plus one pair: an instance's labels (say {replica}) extended
/// by the key that splits its family (say {status}).
inline Labels with_label(Labels labels, std::string key, std::string value) {
  labels.emplace_back(std::move(key), std::move(value));
  return labels;
}

class MetricsRegistry;

/// Monotonic event count.  Copyable; null handles are no-op sinks.
class Counter {
 public:
  Counter() = default;

  void inc(std::uint64_t n = 1) const {
    if (cell_) cell_->fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return cell_ ? cell_->load(std::memory_order_relaxed) : 0;
  }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::atomic<std::uint64_t>* cell) : cell_(cell) {}
  std::atomic<std::uint64_t>* cell_ = nullptr;
};

/// Point-in-time value that can move both ways (queue depth, health).
class Gauge {
 public:
  Gauge() = default;

  /// Stores only a changed value, so callers that set the same value
  /// over and over do not keep taking the cache line from readers.
  void set(double v) const {
    if (cell_ && cell_->load(std::memory_order_relaxed) != v)
      cell_->store(v, std::memory_order_relaxed);
  }
  void add(double d) const {
    if (!cell_) return;
    double cur = cell_->load(std::memory_order_relaxed);
    while (!cell_->compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return cell_ ? cell_->load(std::memory_order_relaxed) : 0.0;
  }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<double>* cell) : cell_(cell) {}
  std::atomic<double>* cell_ = nullptr;
};

/// Fixed-bucket distribution.  Bucket i counts observations v with
/// v <= bounds[i] (Prometheus `le` semantics); one overflow bucket
/// (+Inf) is implicit.  Quantiles report the matched bucket's upper
/// bound, so they are conservative.
///
/// Each thread observes into one of kShards shards (picked once per
/// thread), whose counts and sum sit on cache lines of their own, so
/// observers on different threads do not contend.  count(), sum(),
/// quantile() and the registry's render() add the shards up; counts are
/// exact, and so is the sum whenever the observed values add exactly.
class Histogram {
 public:
  Histogram() = default;

  void observe(double v) const;
  std::uint64_t count() const;
  double sum() const;
  /// Upper-bound estimate of the q-quantile (q in [0,1]); the overflow
  /// bucket reports the largest finite bound.
  double quantile(double q) const;
  explicit operator bool() const { return cells_ != nullptr; }

 private:
  friend class MetricsRegistry;
  struct Cells {
    static constexpr std::size_t kShards = 8;
    static constexpr std::size_t kLineWords = 8;
    struct alignas(64) Line {
      std::atomic<std::uint64_t> words[kLineWords];
    };
    struct alignas(64) Sum {
      std::atomic<double> value{0.0};
    };

    std::vector<double> bounds;  // ascending, finite upper bounds
    std::size_t lines_per_shard;  // room for bounds.size() + 1 counts
    std::unique_ptr<Line[]> lines;  // kShards * lines_per_shard, zeroed
    Sum sums[kShards];

    explicit Cells(std::vector<double> b);
    /// The shard the calling thread observes into: threads take shards
    /// round-robin in the order they first observe.
    static std::size_t this_thread_shard();
    std::atomic<std::uint64_t>& count(std::size_t shard,
                                      std::size_t bucket) const {
      return lines[shard * lines_per_shard + bucket / kLineWords]
          .words[bucket % kLineWords];
    }
    /// Bucket `bucket`'s count summed over the shards.
    std::uint64_t total(std::size_t bucket) const;
    double total_sum() const;
  };
  explicit Histogram(Cells* cells) : cells_(cells) {}
  Cells* cells_ = nullptr;
};

/// Power-of-ten-ish ladder from 10us to 10s: the default for latencies
/// and deadline slack, wide enough for both in-process answers and polls.
const std::vector<double>& default_time_buckets();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolve handles (create on first use).  Names must match
  /// [a-zA-Z_:][a-zA-Z0-9_:]*; label names likewise (no colon).  Throws
  /// InvalidArgument on malformed names or a kind/bucket mismatch with
  /// an existing family.
  Counter counter(const std::string& name, const Labels& labels = {},
                  const std::string& help = "");
  Gauge gauge(const std::string& name, const Labels& labels = {},
              const std::string& help = "");
  Histogram histogram(const std::string& name, std::vector<double> bounds,
                      const Labels& labels = {},
                      const std::string& help = "");

  /// Prometheus text exposition: families in name order, each with
  /// # HELP / # TYPE headers, series in label order, histograms expanded
  /// into cumulative _bucket/_sum/_count lines.
  std::string render() const;

  /// Number of registered series across all families.
  std::size_t series_count() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    Labels labels;
    std::unique_ptr<std::atomic<std::uint64_t>> counter;
    std::unique_ptr<std::atomic<double>> gauge;
    std::unique_ptr<Histogram::Cells> histogram;
  };

  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    std::vector<double> bounds;              // histograms only
    std::map<std::string, Series> series_;   // key: canonical label text
  };

  Family& family(const std::string& name, Kind kind,
                 const std::string& help);
  Series& series(Family& fam, const Labels& labels);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

}  // namespace remos::obs
