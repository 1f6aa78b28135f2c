// Cascaded quartile rollups: bounded long-horizon retention for one
// telemetry series.
//
// Remos answers every dynamic query as quartile statistics over a
// variable timescale (paper §4.2/§4.4), but a raw sample ring can only
// retain `capacity * poll_period` seconds -- a 256-sample ring polled
// every 2 s forgets everything older than ~8.5 minutes.  A RollupCascade
// extends the horizon at bounded memory the way RRD-style stores do:
// raw samples are folded into fixed-width time buckets (default 10 s),
// sealed buckets cascade into coarser ones (default 60 s), and each
// bucket keeps a *five-number summary + count + mean* instead of the
// samples themselves, so windowed quartile reads stay principled:
//
//   - count, mean, min and max merge exactly (count-weighted mean,
//     element-wise min/max);
//   - q1/median/q3 merge by count-weighted interpolation, which is the
//     standard summary-merge approximation: each merged quartile is
//     guaranteed to lie inside [min, max] and inside the envelope of the
//     inputs' corresponding quartiles.  Against raw-sample ground truth
//     the documented tolerance is 15% of the raw spread (max - min) for
//     streams whose distribution is stable across buckets; the property
//     tests in tests/test_timeseries.cpp enforce it.
//
// Appends are O(1) amortized (one open-bucket push; a seal + cascade
// every `width / sample_period` appends) and allocation-bounded: the
// open bucket's scratch buffer is compacted into a partial summary when
// it reaches kOpenBucketScratch values, and every sealed ring grows
// with the buckets it seals, never past its fixed capacity -- a fresh
// cascade holds no bucket storage at all.
#pragma once

#include <cstddef>
#include <vector>

#include "util/ring_buffer.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace remos::obs {

/// Five-number summary + count + mean of the samples that fell into one
/// time bucket [start, start + width).
struct BucketSummary {
  Seconds start = 0;
  Seconds width = 0;
  std::size_t count = 0;
  QuartileSummary q;
  double mean = 0;

  Seconds end() const { return start + width; }
  bool empty() const { return count == 0; }
};

/// Exact summary of raw values (single sort); empty input yields an
/// empty bucket.
BucketSummary summarize_bucket(Seconds start, Seconds width,
                               const std::vector<double>& values);

/// Count-weighted merge of two summaries.  The result spans both
/// buckets' time ranges; count/mean/min/max are exact, quartiles are the
/// count-weighted interpolation described in the header comment.  Either
/// side may be empty.
BucketSummary merge_buckets(const BucketSummary& a, const BucketSummary& b);

/// Converts a (possibly merged) summary into the Remos Measurement
/// representation, using the same accuracy heuristic as
/// Measurement::from_samples (saturating count term, dispersion
/// discount).
Measurement to_measurement(const BucketSummary& s);

/// What a stitched window read answered with, and how much of the
/// requested span it actually saw.
struct WindowStats {
  Measurement measurement;
  Seconds requested = 0;
  /// Effective covered span: from the oldest retained datum inside the
  /// window (or the window start, whichever is younger) to `now`.
  Seconds covered = 0;
  /// True when retention could not reach back over the whole request
  /// (beyond one coarsest-consulted-bucket width of quantization slack).
  bool truncated = false;
  std::size_t raw_samples = 0;   // raw samples consulted
  std::size_t rollup_buckets = 0;  // sealed buckets consulted

  double coverage() const {
    return requested <= 0 ? 1.0
                          : (covered >= requested ? 1.0 : covered / requested);
  }
};

/// The cascade itself: one ring of sealed buckets per level, finest
/// first, plus one open (accumulating) bucket per level.
class RollupCascade {
 public:
  struct LevelSpec {
    Seconds width = 0;        // bucket length; each level a multiple of
                              // the previous
    std::size_t capacity = 0;  // sealed buckets retained
  };

  /// Default cascade: 10 s x 360 (one hour) -> 60 s x 1440 (one day).
  static const std::vector<LevelSpec>& default_levels();

  explicit RollupCascade(std::vector<LevelSpec> levels);
  RollupCascade() : RollupCascade(default_levels()) {}

  /// Folds one sample in.  Timestamps are expected non-decreasing (the
  /// collector and simulator clocks are); a late sample is folded into
  /// the current open bucket rather than dropped.
  void append(Seconds at, double value);

  std::size_t level_count() const { return levels_.size(); }
  const LevelSpec& level(std::size_t i) const { return levels_[i].spec; }

  /// Sealed buckets of one level, oldest first.
  std::vector<BucketSummary> sealed(std::size_t level) const;

  /// Oldest instant any sealed bucket still covers; +inf when nothing
  /// has been sealed yet.
  Seconds oldest_sealed() const;

  /// Samples folded in since construction.
  std::size_t total_samples() const { return total_samples_; }

  /// Approximate heap footprint of retained state (sealed buckets +
  /// open-bucket scratch), for memory-bound assertions.
  std::size_t memory_bytes() const;

  /// Answers a windowed quartile read over (now - window, now] by
  /// stitching the caller's raw samples (everything the raw ring retains
  /// inside the window, oldest first, spanning [raw_oldest, now]) with
  /// sealed buckets for the older remainder, finest level first.  Pass
  /// raw_oldest = +inf when the raw ring is empty.  window <= 0 answers
  /// from the raw samples alone with full coverage (the "everything
  /// retained" contract of LinkHistory).
  WindowStats stitched(Seconds now, Seconds window,
                       const std::vector<double>& raw_in_window,
                       Seconds raw_oldest) const;

 private:
  /// Open-bucket scratch values kept before compacting into a partial
  /// summary (bounds allocation regardless of sample rate).
  static constexpr std::size_t kOpenBucketScratch = 256;

  struct Level {
    LevelSpec spec;
    RingBuffer<BucketSummary> ring;
    // Open bucket state.  Level 0 accumulates raw values (scratch +
    // partial); coarser levels accumulate sealed finer buckets by merge.
    bool open_active = false;
    Seconds open_start = 0;
    std::vector<double> scratch;      // level 0 only
    BucketSummary partial;            // compacted/merged accumulation

    explicit Level(LevelSpec s) : spec(s), ring(s.capacity) {}
  };

  /// Seals level `i`'s open bucket (if non-empty) and cascades the
  /// sealed summary upward.
  void seal(std::size_t i);
  /// Feeds one sealed bucket into level `i`'s open accumulation.
  void accept(std::size_t i, const BucketSummary& sealed_bucket);

  std::vector<Level> levels_;
  std::size_t total_samples_ = 0;
};

}  // namespace remos::obs
