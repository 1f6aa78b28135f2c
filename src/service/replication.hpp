// Replicated snapshot plane: primary -> N replicas over a faulty channel.
//
// The measurement plane produces one NetworkModel in one process -- a
// single fault domain.  This layer streams versioned snapshot frames
// (collector/snapshot_codec) from a primary publisher to N in-process
// replicas over a fault-injectable channel, so the query plane survives
// a misbehaving *replication* network exactly the way the collector
// survives a misbehaving management network (PR 1):
//
//   primary publish ──> SnapshotStore (version v, held base v-1)
//                   ──> delta(v-1 -> v)  ──ReplicationBus──> replica 0..N-1
//                        │ drop / duplicate / reorder / corrupt /
//                        │ truncate / partition / crash  (scripted,
//                        │ seeded, time-windowed -- the snmp::
//                        │ FaultInjector idiom at the snapshot layer)
//                        └─> targeted full frames for replicas that
//                            flagged a gap (resync)
//
// Each ReplicaStore applies frames with gap detection: a delta whose
// base version is not the replica's applied version flags needs_full(),
// and the publisher answers with a targeted full frame on its next
// round.  Duplicated or reordered frames at or below the applied
// version are ignored, so redelivery is idempotent.  A crashed replica
// loses its volatile state; on restart it rejoins with applied version
// 0 and resyncs from a full frame.  Replicas serve queries from their
// newest *verified* snapshot through an embedded QueryService, so a
// behind replica answers with the service plane's staleness SLO and the
// collector plane's accuracy decay rather than refusing.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "collector/network_model.hpp"
#include "collector/snapshot_codec.hpp"
#include "obs/obs.hpp"
#include "service/query_service.hpp"
#include "service/snapshot_store.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace remos::service {

/// Scriptable fault injection for the replication channel (the
/// snmp::FaultInjector idiom one layer up): seeded, time-windowed on the
/// model clock, per-replica or channel-wide.  Faults compose -- a frame
/// may survive a drop roll only to be corrupted and then reordered.
class ChannelFaultInjector {
 public:
  /// Half-open window [from, until) on the model clock.
  struct Window {
    Seconds from = 0;
    Seconds until = std::numeric_limits<double>::infinity();
    bool contains(Seconds t) const { return t >= from && t < until; }
  };

  static constexpr int kAllReplicas = -1;

  explicit ChannelFaultInjector(std::uint64_t seed = 0x5EB05);

  // --- scripting (replica kAllReplicas targets every endpoint) --------

  /// Per-frame loss probability while the window is active.
  void drop(Window window, double probability, int replica = kAllReplicas);
  /// Probability that a frame is delivered twice.
  void duplicate(Window window, double probability,
                 int replica = kAllReplicas);
  /// Probability that a frame is held and delivered after its successor.
  void reorder(Window window, double probability, int replica = kAllReplicas);
  /// Probability that one frame byte gets one bit flipped.
  void corrupt(Window window, double probability, int replica = kAllReplicas);
  /// Probability that a frame loses a suffix.
  void truncate(Window window, double probability,
                int replica = kAllReplicas);
  /// Replica unreachable (frames blackholed, state kept) for the window.
  void partition(int replica, Window window);
  /// Replica process down for the window; on restart its volatile state
  /// (applied model + version) is gone, like a real process crash.
  void crash(int replica, Window window);

  // --- hooks (bus/publisher side, model clock) -------------------------

  bool crashed(int replica, Seconds now) const;
  bool partitioned(int replica, Seconds now) const;
  bool roll_drop(int replica, Seconds now);
  bool roll_duplicate(int replica, Seconds now);
  bool roll_reorder(int replica, Seconds now);
  /// Applies corruption/truncation; returns the frame to deliver.
  std::vector<std::uint8_t> mutate(int replica, Seconds now,
                                   std::vector<std::uint8_t> frame);

  /// Faults realized (drops, duplicates, reorders, mutations).
  std::uint64_t faults_injected() const { return faults_injected_; }

 private:
  struct Fault {
    Window window;
    double probability = 0;
    int replica = kAllReplicas;
  };
  struct Outage {
    int replica = kAllReplicas;
    Window window;
  };

  static bool matches(int filter, int replica) {
    return filter == kAllReplicas || filter == replica;
  }
  bool roll(const std::vector<Fault>& faults, int replica, Seconds now);

  Rng rng_;
  std::vector<Fault> drops_;
  std::vector<Fault> duplicates_;
  std::vector<Fault> reorders_;
  std::vector<Fault> corruptions_;
  std::vector<Fault> truncations_;
  std::vector<Outage> partitions_;
  std::vector<Outage> crashes_;
  std::uint64_t faults_injected_ = 0;
};

/// In-process frame channel from the primary to its replicas, with the
/// fault injector sitting at the send boundary (replicas never know a
/// frame was perturbed -- they find out by decoding it).  Single-writer:
/// all sends happen on the publisher thread.
class ReplicationBus {
 public:
  using Sink = std::function<void(const std::vector<std::uint8_t>&, Seconds)>;

  explicit ReplicationBus(ChannelFaultInjector& faults) : faults_(faults) {}

  /// Registers a delivery sink; returns the endpoint's replica id.
  int subscribe(Sink sink);

  /// Sends one frame to one endpoint through the fault gauntlet.
  void send(int replica, const std::vector<std::uint8_t>& frame,
            Seconds now);

  struct Stats {
    std::uint64_t sent = 0;        // frames offered to the channel
    std::uint64_t delivered = 0;   // sink invocations (incl. duplicates)
    std::uint64_t dropped = 0;     // lost to drop rolls
    std::uint64_t blackholed = 0;  // lost to partition/crash windows
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t mutated = 0;     // corrupted or truncated in flight
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Endpoint {
    Sink sink;
    std::vector<std::uint8_t> held;  // one-slot reorder buffer
    bool holding = false;
  };

  void deliver(Endpoint& ep, const std::vector<std::uint8_t>& frame,
               Seconds now);

  ChannelFaultInjector& faults_;
  std::vector<Endpoint> endpoints_;
  Stats stats_;
};

/// One replica: the replicated model, frame application with gap
/// detection, and an embedded QueryService serving from the newest
/// verified snapshot.  Frame application runs on the publisher thread;
/// queries run on their callers' threads; the health signals the
/// coordinator reads cross threads as atomics.
class ReplicaStore {
 public:
  struct Options {
    QueryService::Options service;
  };

  /// The Stats counters live in `obs.metrics` when given, else in a
  /// registry the replica owns; either way under {replica=id}, the label
  /// its embedded service is wired with too.
  ReplicaStore(int id, Options options, obs::Obs obs = {});

  void start() { service_.start(); }
  void stop() { service_.stop(); }

  int id() const { return id_; }
  QueryService& service() { return service_; }

  // --- publisher-thread hooks -----------------------------------------

  /// Delivers one wire frame (possibly corrupted/reordered/duplicated).
  void on_frame(const std::vector<std::uint8_t>& frame, Seconds now);
  /// The replica is down at `now` (crash window): stop serving; the
  /// next note_alive marks a restart that wipes volatile state.
  void note_outage(Seconds now);
  /// The replica is up at `now`: advances its model clock so snapshots
  /// age (and staleness/accuracy decay apply) even while partitioned.
  void note_alive(Seconds now);

  /// Fingerprint of the applied model (publisher thread or quiesced).
  std::uint64_t fingerprint() const {
    return collector::model_fingerprint(model_);
  }

  // --- cross-thread health signals (coordinator side) ------------------

  /// False while the replica process is down.
  bool serving() const { return serving_.load(std::memory_order_acquire); }
  /// Newest applied (verified) snapshot version; 0 before the first.
  std::uint64_t applied_version() const {
    return applied_.load(std::memory_order_acquire);
  }
  /// True when a gap/restart was detected and a full resync is pending.
  bool needs_full() const {
    return needs_full_.load(std::memory_order_acquire);
  }

  /// Each field reads its remos_replication_* counter.
  struct Stats {
    std::uint64_t fulls_applied = 0;
    std::uint64_t deltas_applied = 0;
    std::uint64_t rejected = 0;       // corrupt/truncated frames refused
    std::uint64_t ignored_stale = 0;  // duplicates and late reorders
    std::uint64_t gaps = 0;           // base-version mismatches
    std::uint64_t resyncs = 0;        // fulls that cleared needs_full
    std::uint64_t restarts = 0;       // crash -> restart transitions
  };
  Stats stats() const;

 private:
  void publish_to_service(Seconds taken_at);

  const int id_;
  QueryService service_;
  collector::NetworkModel model_;  // publisher thread only
  bool crashed_ = false;           // publisher thread only
  bool ever_synced_ = false;       // distinguishes resync from first sync

  std::atomic<bool> serving_{true};
  std::atomic<bool> needs_full_{true};  // fresh replicas want a full
  std::atomic<std::uint64_t> applied_{0};

  obs::MetricsRegistry own_metrics_;  // the counters' home when unwired
  obs::Counter fulls_applied_;
  obs::Counter deltas_applied_;
  obs::Counter rejected_;
  obs::Counter ignored_stale_;
  obs::Counter gaps_;
  obs::Counter resyncs_;
  obs::Counter restarts_;

  obs::FlightRecorder* recorder_ = nullptr;
};

}  // namespace remos::service
