// The collector's data product: a named-node network model with per-link
// measurement histories.
//
// This is deliberately separate from both the simulator Topology (which a
// real collector cannot see) and the core::NetworkGraph the Remos API
// returns (which is a per-query logical view).  Everything here is keyed
// by node *name*, because names (sysName) are all that SNMP discovery
// yields.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netsim/routing.hpp"
#include "obs/rollup.hpp"
#include "util/ring_buffer.hpp"
#include "util/sharing.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace remos::collector {

/// One polling observation of a link: traffic rates seen in each
/// direction over the last polling interval.
struct Sample {
  Seconds at = 0;          // collector-side timestamp of the interval end
  BitsPerSec used_ab = 0;  // traffic a -> b
  BitsPerSec used_ba = 0;  // traffic b -> a
};

/// Bounded multi-resolution history of samples for one link: a raw ring
/// for recent polls plus one rollup cascade per direction (10 s / 60 s
/// quartile buckets by default), so windowed reads answer horizons far
/// beyond the raw ring at bounded memory instead of silently truncating.
/// Merged-in samples (merge_from) flow through record() and therefore
/// backfill the cascades too.
class LinkHistory {
 public:
  explicit LinkHistory(std::size_t capacity = 256)
      : samples_(capacity) {}

  void record(Sample s) {
    rollup_ab_.append(s.at, s.used_ab);
    rollup_ba_.append(s.at, s.used_ba);
    samples_.push(s);
  }
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  const Sample& latest() const { return samples_.back(); }
  /// i-th retained sample, 0 = oldest.
  const Sample& sample(std::size_t i) const { return samples_[i]; }

  /// Used-bandwidth samples in (now - window, now], oldest first.
  /// window <= 0 means "everything retained".  Raw ring only.
  std::vector<double> used_in_window(Seconds now, Seconds window,
                                     bool ab) const;

  /// Windowed quartile read with covered-span semantics: windows inside
  /// the raw ring answer exactly from samples; longer windows stitch in
  /// rollup buckets; a window beyond all retention reports the effective
  /// covered span with `truncated` set and accuracy discounted by the
  /// coverage ratio.
  obs::WindowStats used_windowed(Seconds now, Seconds window, bool ab) const;

  /// Quartile measurement of used bandwidth over the window
  /// (used_windowed().measurement).
  Measurement used_measurement(Seconds now, Seconds window, bool ab) const;

  /// The per-direction rollup cascade (audit/export).
  const obs::RollupCascade& rollups(bool ab) const {
    return ab ? rollup_ab_ : rollup_ba_;
  }

  /// Approximate heap footprint of retained state (raw + rollups).
  std::size_t memory_bytes() const;

 private:
  RingBuffer<Sample> samples_;
  obs::RollupCascade rollup_ab_;
  obs::RollupCascade rollup_ba_;
};

class NetworkModel;

struct ModelNode {
  std::string name;
  /// Routers forward; hosts only originate and sink.  Structural: written
  /// only by NetworkModel (upsert_node promotion, set_router).
  bool is_router() const { return is_router_; }
  /// Aggregate forwarding capacity (0 = not reported / unlimited).
  BitsPerSec internal_bw = 0;
  /// Host info (compute nodes with a responding host agent only).
  bool has_host_info = false;
  double cpu_load = 0.0;
  std::uint32_t memory_mb = 0;

 private:
  friend class NetworkModel;
  bool is_router_ = false;
};

struct ModelLink {
  std::string a;
  std::string b;
  BitsPerSec capacity = 0;
  Seconds latency = 0;
  /// Operational state, from ifOperStatus.  Down links stay in the model
  /// (they may return) but contribute nothing to logical topologies.
  /// Structural: written only by NetworkModel::set_link_up.
  bool up() const { return up_; }
  /// How competing flows split this link's capacity (extension; unknown
  /// for links the network did not describe, e.g. probed WAN pairs).
  SharingPolicy sharing = SharingPolicy::kUnknown;
  /// When a collector last confirmed this link's state (collector clock;
  /// < 0 = never).  Distinct from history.latest().at: a poll that
  /// reaches the agent but yields no usable sample (e.g. a counter
  /// discontinuity) still refreshes this, while a dead agent freezes it.
  /// Queries widen their accuracy as links go stale.
  Seconds last_update = -1;
  LinkHistory history;

 private:
  friend class NetworkModel;
  bool up_ = true;
};

/// The collector's routing view of a NetworkModel: a netsim::RouteKernel
/// over the model's nodes (ids in name order; routers forward) and its
/// *up* links (unit hop weights, link latencies), so a route here is the
/// route the simulator takes on the same network.  Immutable with respect
/// to the model state it was built from: NetworkModel::routing_index()
/// rebuilds it after any structural write.  Rows are memoized per source
/// and safe to request from concurrent queries sharing one index.
///
/// Two by-id tables, built with the index, let a query work on ids
/// alone: each model link's `a`-end id, and each id's ModelNode.  They
/// point into the model the index was built from and, like the index,
/// stay valid until its next structural write.  A node's measurement
/// fields (internal bandwidth, host info) read through live.
class RoutingIndex {
 public:
  /// One source's row: prev_node[v] is the predecessor of v on the route
  /// from the source (kNoNode if unreachable, the source for itself);
  /// prev_link[v] indexes NetworkModel::links() for the link taken.
  using Row = netsim::RouteKernel::Row;

  static constexpr std::int32_t kNoNode = netsim::RouteKernel::kNone;

  explicit RoutingIndex(const NetworkModel& model);

  std::size_t node_count() const { return kernel_.node_count(); }
  /// Dense id of a node name; kNoNode if unknown.
  std::int32_t id_of(std::string_view name) const {
    return kernel_.id_of(name);
  }
  const std::string& name_of(std::int32_t id) const {
    return kernel_.name_of(id);
  }
  bool is_router(std::int32_t id) const { return kernel_.forwards(id); }
  /// The model node with id `id`.
  const ModelNode& node(std::int32_t id) const {
    return *nodes_[static_cast<std::size_t>(id)];
  }
  /// The id of model link `link`'s `a` end (links() order, down links
  /// included).
  std::int32_t link_a(std::size_t link) const { return link_a_[link]; }

  /// The memoized row from `src` (searched on first use).
  const Row& row_from(std::int32_t src) const { return kernel_.row(src); }

 private:
  netsim::RouteKernel kernel_;
  std::vector<const ModelNode*> nodes_;  // by id
  std::vector<std::int32_t> link_a_;     // by model link
};

/// Discovered topology plus measurement state.  Links are unordered pairs;
/// sample direction is stored relative to the (a, b) orientation the link
/// was first inserted with.
///
/// Structure -- the node set, the link set, router flags and link up
/// flags -- changes only through this class's methods, each of which
/// bumps the model's structure version.  Everything else on a node or
/// link is measurement state, writable in place through the mutable
/// accessors.  Node names and link endpoints key the lookup maps, so they
/// must never be edited in place (a rename is a remove plus an insert);
/// that is why the version need not track them.
class NetworkModel {
 public:
  /// Inserts or updates a node; returns the stored entry.  Inserting, or
  /// promoting a host to router, is a structural change.
  ModelNode& upsert_node(const std::string& name, bool is_router);

  /// Inserts a link if absent (either orientation); returns the entry.
  ModelLink& upsert_link(const std::string& a, const std::string& b,
                         BitsPerSec capacity, Seconds latency);

  /// Sets a node's router flag (either way, unlike upsert_node's
  /// promotion).  `node` must belong to this model.
  void set_router(ModelNode& node, bool is_router);
  /// Sets a link's operational state.  `link` must belong to this model.
  void set_link_up(ModelLink& link, bool up);

  bool has_node(const std::string& name) const;
  const ModelNode& node(const std::string& name) const;
  ModelNode& node(const std::string& name);

  /// Finds the link between a and b in either orientation; `flipped` is
  /// set if the stored orientation is (b, a).  Null if absent.
  const ModelLink* find_link(const std::string& a, const std::string& b,
                             bool* flipped = nullptr) const;
  ModelLink* find_link(const std::string& a, const std::string& b,
                       bool* flipped = nullptr);

  const std::map<std::string, ModelNode>& nodes() const { return nodes_; }
  const std::vector<ModelLink>& links() const { return links_; }
  /// Mutable access is for measurement writes; links are added and
  /// removed only through upsert_link / remove_link / remove_node.
  std::vector<ModelLink>& links() { return links_; }

  /// Merges another model into this one (multi-collector cooperation):
  /// unknown nodes/links are added; known links keep their existing
  /// history and adopt the other's samples.
  void merge_from(const NetworkModel& other);

  /// Removes the link between a and b (either orientation) with its
  /// history.  Returns false if no such link exists.  O(links): the
  /// link vector and its index are rebuilt without the entry.
  bool remove_link(const std::string& a, const std::string& b);

  /// Removes a node and every link incident to it.  Returns false if
  /// the node is unknown.  (Replication deltas decommission nodes this
  /// way; collectors keep vanished routers in the model instead, since
  /// they may return.)
  bool remove_node(const std::string& name);

  /// The routing index for the model's current structure, built lazily
  /// on first use and cached.  Each call is O(1): it compares the
  /// structure version the cached index was built under with the
  /// current one and rebuilds only if they differ.  The returned
  /// reference is valid until the model's structure next changes.  Safe
  /// for concurrent readers of an immutable snapshot.
  const RoutingIndex& routing_index() const;

 private:
  std::map<std::string, ModelNode> nodes_;
  std::vector<ModelLink> links_;
  std::map<std::pair<std::string, std::string>, std::size_t> link_index_;
  /// Counts structural writes; measurement writes leave it alone.
  std::uint64_t structure_version_ = 0;

  /// Cached routing index + the structure version it was built under.
  /// Copies of a model start with a cold cache: the index's by-id tables
  /// point into the model it was built from.
  struct RoutingCache {
    RoutingCache() = default;
    RoutingCache(const RoutingCache&) {}
    RoutingCache& operator=(const RoutingCache&) {
      index.reset();
      version = 0;
      return *this;
    }

    void lock() const {
      while (flag.test_and_set(std::memory_order_acquire))
        while (flag.test(std::memory_order_relaxed)) {
        }
    }
    void unlock() const { flag.clear(std::memory_order_release); }

    mutable std::atomic_flag flag = ATOMIC_FLAG_INIT;
    std::shared_ptr<RoutingIndex> index;
    std::uint64_t version = 0;
  };
  mutable RoutingCache routing_cache_;
};

}  // namespace remos::collector
