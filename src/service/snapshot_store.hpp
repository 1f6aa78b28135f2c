// Versioned, immutable model snapshots (service layer).
//
// The measurement plane mutates the collector's NetworkModel in place on
// every poll; a query reading that model concurrently would observe torn
// state (a link whose history grew mid-read, a half-merged CollectorSet
// view).  The SnapshotStore decouples the two planes: the poller thread
// publishes a deep copy of the model as an immutable ModelSnapshot, and
// executing queries load the current snapshot pointer -- no copy, no torn
// reads.  One lifetime rule: a snapshot lives exactly as long as someone
// holds its Ptr.  The store holds two, current and previous
// (double-buffered, so the common "one reader still on version n-1" case
// never frees mid-query); anyone needing an older snapshot -- a reader
// mid-answer, a delta encoder's base -- keeps the Ptr it was handed.
// The store does not address older versions.
//
// Publication is a pointer swap under a tiny acquire/release spinlock
// rather than std::atomic<shared_ptr>.  That is not a concession:
// libstdc++ implements atomic<shared_ptr> as exactly such a spinlock
// internally, but unlocks reads with a *relaxed* RMW, which leaves the
// reader's critical section unordered against the next writer under the
// ISO memory model -- ThreadSanitizer (correctly) reports it.  Spelling
// the lock out with proper acquire/release costs the same handful of
// instructions and is provably race-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "collector/network_model.hpp"

namespace remos::service {

/// One published view of the network: a deep copy of a collector model,
/// stamped with a monotonically increasing version and the model clock
/// at publication.  Immutable after construction.
struct ModelSnapshot {
  std::uint64_t version = 0;
  /// Model clock (simulated seconds) when this snapshot was taken; the
  /// freshness anchor for the service's staleness SLO.
  Seconds taken_at = 0;
  collector::NetworkModel model;
};

class SnapshotStore {
 public:
  using Ptr = std::shared_ptr<const ModelSnapshot>;

  /// Publishes `model` as the new current snapshot and returns it.  The
  /// previously current snapshot stays held as previous().  Safe to
  /// call concurrently with any number of readers; publishers are
  /// expected to be serialized (one poller thread).
  Ptr publish(collector::NetworkModel model, Seconds taken_at);

  /// The freshest published snapshot; null until the first publish.
  /// A refcount bump under the spinlock -- the query hot path.
  Ptr current() const;

  /// The snapshot before current (null until the second publish).
  Ptr previous() const;

  /// Version of the current snapshot; 0 before the first publish.
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

 private:
  void lock() const {
    while (lock_.test_and_set(std::memory_order_acquire))
      while (lock_.test(std::memory_order_relaxed)) {
      }
  }
  void unlock() const { lock_.clear(std::memory_order_release); }

  mutable std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
  Ptr current_;
  Ptr previous_;
  std::atomic<std::uint64_t> version_{0};
};

}  // namespace remos::service
