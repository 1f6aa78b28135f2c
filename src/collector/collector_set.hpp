// Cooperating collectors ("a large environment may require multiple
// cooperating Collectors", paper §5).
//
// A CollectorSet owns no collector; it references several and exposes a
// merged NetworkModel.  Typical use: one SnmpCollector per management
// domain plus a BenchmarkCollector spanning the WAN cloud between them.
#pragma once

#include <functional>
#include <vector>

#include "collector/collector.hpp"
#include "obs/obs.hpp"

namespace remos::collector {

class CollectorSet {
 public:
  /// Snapshot-publication hook: called at the end of every poll_all()
  /// round with the freshly merged view (see Collector::PollHook for the
  /// single-collector equivalent).  The merged model passed in is a
  /// value the hook may move into an immutable snapshot.
  using PublishHook = std::function<void(NetworkModel merged)>;

  CollectorSet();

  /// Registers a collector; it must outlive the set.
  void add(Collector& collector);

  std::size_t size() const { return collectors_.size(); }

  /// Runs discovery on all collectors.
  void discover_all();

  /// Runs one poll round on all collectors.  A collector that throws is
  /// skipped (its model keeps prior state); the round always completes.
  void poll_all();

  /// Collectors skipped because their poll() threw, summed over rounds:
  /// reads remos_collectorset_poll_errors_total.
  std::size_t poll_errors() const { return poll_errors_counter_.value(); }

  /// Wires round counters and skipped-collector events into the set
  /// (individual collectors are wired separately via their own set_obs).
  /// Until then poll_errors() counts in a registry the set owns.
  void set_obs(const obs::Obs& o);

  /// Installs (or clears, with nullptr) the per-round publication hook.
  void set_publish_hook(PublishHook hook) { publish_hook_ = std::move(hook); }

  /// Merged view across all collectors (rebuilt on each call).  Where
  /// collectors disagree on scalar state, healthy collectors override
  /// degraded ones and fresher data overrides staler.
  NetworkModel merged() const;

 private:
  std::vector<Collector*> collectors_;
  PublishHook publish_hook_;
  obs::MetricsRegistry own_metrics_;  // the counter's home until wired
  obs::Counter poll_errors_counter_;
  obs::Counter rounds_counter_;
  obs::Histogram merge_duration_;
  obs::FlightRecorder* recorder_ = nullptr;
};

}  // namespace remos::collector
