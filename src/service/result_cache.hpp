// Snapshot-versioned result cache (the brownout ladder's middle rung).
//
// The paper's §4 sharing semantics make a Remos answer a pure function of
// (network snapshot, query): two applications asking the same flow
// question against the same published model must receive the same
// quartiles.  That purity is cacheable.  Each entry is keyed by a
// *canonicalized query fingerprint* (sorted node sets, normalized
// timeframes; flow order preserved, because fixed-flow admission order is
// semantically significant) and stamped with the version and the
// `taken_at` of the snapshot that answered it.  An entry holds no
// snapshot: it never reads the model again, so publishes free old
// snapshots whatever the cache retains.
//
// Two lookups fall out of one table:
//   - Fresh hit: the entry's version equals the store's current version.
//     The cached payload IS the answer -- O(1), no solve, no Modeler.
//   - Brownout: versions differ (or the fresh path already failed), but a
//     previous answer exists.  Under overload the service serves it with
//     kDegraded and every dynamic Measurement's accuracy multiplied by
//     2^(-age / halflife) -- PR 1's staleness-decay idiom -- so the
//     caller gets "the network looked like this `age` seconds ago, trust
//     it this much" instead of a shed.  Never a stale answer presented as
//     fresh: the status and the discount always travel with it.
//
// Publishes do not sweep the cache; entries self-invalidate for the fresh
// path by version comparison, and remain eligible for brownout until LRU
// eviction replaces them.  Capacity 0 disables caching entirely (the
// default: existing callers and benches see the exact pre-cache service).
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "service/query_service.hpp"

namespace remos::service {

/// Canonical fingerprint of a graph query: sorted node set, timeframe,
/// logical options.  Deadline, staleness budget and trace flags are
/// excluded -- they shape *how* the answer is produced, not *what* it is.
std::string canonical_key(const GraphQuery& query);

/// Canonical fingerprint of a flow query.  Flow lists keep their order:
/// fixed flows are admitted sequentially, so [A,B] and [B,A] are
/// different questions when capacity is tight.
std::string canonical_key(const FlowInfoQuery& query);

/// Canonical fingerprint of a batch: sharing mode plus the per-sub-query
/// fingerprints in batch order (order matters in shared mode, and the
/// index-aligned results make it part of the question either way).
std::string canonical_key(const FlowBatchInfoQuery& query);

/// Multiplies the accuracy of every *dynamic* Measurement in the payload
/// by `factor` (clamped to [0,1]): link usage and node forwarding
/// estimates for graphs, bandwidth/latency estimates for flow results.
/// Static physical capacities keep accuracy 1 -- age does not erode them.
void discount_accuracy(GraphResponse& response, double factor);
void discount_accuracy(FlowInfoResponse& response, double factor);
void discount_accuracy(FlowBatchResponse& response, double factor);

template <typename Response>
class ResultCache {
 public:
  struct Options {
    /// Maximum cached fingerprints; 0 disables the cache (every lookup
    /// misses, inserts are dropped).
    std::size_t capacity = 0;
  };

  struct Hit {
    Response response;
    std::uint64_t version = 0;
    /// Model clock when the cached answer's snapshot was taken (brownout
    /// age = now - taken_at).
    Seconds taken_at = 0;
  };

  ResultCache() = default;
  explicit ResultCache(Options options) : options_(options) {}

  bool enabled() const { return options_.capacity > 0; }

  /// The newest cached answer for `key`, whatever its version (the
  /// caller compares Hit::version against the store's current version to
  /// distinguish a fresh hit from brownout material).
  std::optional<Hit> find(const std::string& key) {
    if (!enabled()) return std::nullopt;
    std::lock_guard<std::mutex> lk(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return Hit{it->second.response, it->second.version, it->second.taken_at};
  }

  /// Stores `response` as the answer for `key` at `version`.  A newer
  /// version replaces an older entry for the same fingerprint; an older
  /// or equal one is dropped (a slow query must not roll the cache
  /// back).  `taken_at` is the answering snapshot's model clock, the
  /// anchor of a later brownout's age.
  void insert(const std::string& key, Response response,
              std::uint64_t version, Seconds taken_at) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lk(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (version <= it->second.version) return;
      it->second.response = std::move(response);
      it->second.version = version;
      it->second.taken_at = taken_at;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return;
    }
    while (entries_.size() >= options_.capacity && !lru_.empty()) {
      entries_.erase(lru_.back());
      lru_.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    lru_.push_front(key);
    Entry e;
    e.response = std::move(response);
    e.version = version;
    e.taken_at = taken_at;
    e.lru_it = lru_.begin();
    entries_.emplace(key, std::move(e));
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return entries_.size();
  }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    Response response;
    std::uint64_t version = 0;
    Seconds taken_at = 0;
    std::list<std::string>::iterator lru_it;
  };

  Options options_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recent
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace remos::service
