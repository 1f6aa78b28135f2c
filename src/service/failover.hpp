// Client-side failover over snapshot replicas, plus the ReplicatedService
// bundle that wires primary, channel, replicas and coordinator together.
//
// The FailoverCoordinator is the piece a network-aware application links
// against when the Modeler is replicated: it health-checks replicas
// (serving flag, pending resync, applied-version lag against the
// primary) and routes each query to a healthy replica round-robin,
// retrying the next one on failure with a per-attempt slice of the
// caller's deadline -- so a crashed or partitioned replica mid-fault-storm
// costs a reroute, not a blown p99.  Failover state machine per replica:
//
//          frames applied, lag small
//        ┌──────────── HEALTHY ◄───────────┐
//        │ in rotation   │                 │ full frame applied
//        │               │ gap / lag       │ (resync)
//        ▼               │                 │
//   serves queries       ▼                 │
//                     DEGRADED ────────────┘
//                  fallback only │
//                        │ crash window opens
//                        ▼
//                      DOWN ── restart (state wiped) ──► DEGRADED
//                 never routed
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/obs.hpp"
#include "service/replication.hpp"

namespace remos::service {

class FailoverCoordinator : public FlowInfoEndpoint {
 public:
  struct Options {
    /// A replica trailing the primary by more than this many versions is
    /// unhealthy (it still serves as a stale fallback).
    std::uint64_t max_lag_versions = 8;
    /// Distinct replicas tried per query; the caller's deadline is
    /// divided evenly across attempts so retries stay inside it.
    int max_attempts = 3;
    /// Floor on the per-attempt deadline slice.  Rather than issuing
    /// doomed near-zero-budget attempts, the coordinator first reduces
    /// the attempt count until every slice clears this floor; a total
    /// deadline below even one slice fails fast with a synthesized
    /// kExpired (no attempt is issued at all).  0 disables the clamp.
    std::chrono::microseconds min_attempt_slice{1'000};
  };

  /// The Stats counters live in `obs.metrics` when given, else in a
  /// registry the coordinator owns.
  FailoverCoordinator(std::vector<ReplicaStore*> replicas, Options options,
                      obs::Obs obs = {});

  /// Publisher-thread tick: anchors the lag check, maintains the
  /// healthy-replica gauge, and edge-detects total degradation.
  void note_publish(std::uint64_t version, Seconds now);

  /// Query entry points (FlowInfoEndpoint), callable from any thread.
  /// Route to a healthy replica; on failure retry the next, then fall
  /// back to any serving replica (stale answers beat no answers);
  /// synthesize a structured kError response when nothing is routable.
  /// A batch routes (and reroutes) as one unit to one replica -- its
  /// sub-queries always answer from a single consistent snapshot.
  GraphResponse get_graph(GraphQuery query) override;
  FlowInfoResponse flow_info(FlowInfoQuery query) override;
  FlowBatchResponse flow_info_batch(FlowBatchInfoQuery query) override;

  /// In rotation: serving, synced, within the lag budget.
  bool healthy(std::size_t i) const;
  std::size_t healthy_count() const;

  /// Each field reads its remos_failover_* counter.
  struct Stats {
    std::uint64_t queries = 0;
    /// Queries answered by other than the first replica tried.
    std::uint64_t rerouted = 0;
    /// Queries that burned every attempt without an ok() answer.
    std::uint64_t exhausted = 0;
    /// Queries with no routable replica at all (synthesized kError).
    std::uint64_t unrouted = 0;
    /// Queries answered on pass 1 (an unhealthy-but-serving replica: a
    /// stale fallback beats no answer).
    std::uint64_t degraded_fallback = 0;
    /// Queries failed fast with a synthesized kExpired because the total
    /// deadline could not cover even one min_attempt_slice.
    std::uint64_t fast_expired = 0;
  };
  Stats stats() const;

 private:
  template <typename Response, typename Query, typename Fn>
  Response route(Query& query, Fn&& call);

  std::vector<ReplicaStore*> replicas_;
  Options options_;

  std::atomic<std::uint64_t> primary_version_{0};
  std::atomic<std::uint64_t> cursor_{0};

  obs::MetricsRegistry own_metrics_;  // the counters' home when unwired
  obs::Counter queries_;
  obs::Counter rerouted_;
  obs::Counter exhausted_;
  obs::Counter unrouted_;
  obs::Counter degraded_fallback_;
  obs::Counter fast_expired_;

  obs::FlightRecorder* recorder_ = nullptr;
  obs::Gauge healthy_gauge_;
  bool degraded_ = false;  // publisher thread only (edge detector)
};

/// The replicated snapshot plane in one object: a primary SnapshotStore
/// (with the held delta base), the fault-injectable ReplicationBus, N
/// ReplicaStores, and a FailoverCoordinator over them.  publish() is the
/// single publisher-thread entry point; queries go through coordinator().
class ReplicatedService {
 public:
  struct Options {
    std::size_t replicas = 3;
    /// Options for each replica's embedded QueryService.
    QueryService::Options service;
    /// Every full_every-th version (1, 1 + full_every, ...) ships as a
    /// full frame (delta anchor); other versions ship as deltas against
    /// the previous version.  0 ships only version 1 full.
    std::uint64_t full_every = 32;
    FailoverCoordinator::Options failover;
    std::uint64_t seed = 0x5EB05;
  };

  explicit ReplicatedService(Options options, obs::Obs obs = {});
  ReplicatedService() : ReplicatedService(Options{}) {}
  ~ReplicatedService();

  ReplicatedService(const ReplicatedService&) = delete;
  ReplicatedService& operator=(const ReplicatedService&) = delete;

  void start();
  void stop();

  /// Publishes to the primary store and streams one frame per replica
  /// through the faulty channel, plus targeted full frames to replicas
  /// flagging needs_full().  Publisher thread only.
  void publish(const collector::NetworkModel& model, Seconds now);

  ChannelFaultInjector& faults() { return faults_; }
  FailoverCoordinator& coordinator() { return *coordinator_; }
  ReplicaStore& replica(std::size_t i) { return *replicas_.at(i); }
  std::size_t replica_count() const { return replicas_.size(); }
  const ReplicationBus::Stats& bus_stats() const { return bus_.stats(); }

  std::uint64_t primary_version() const { return store_.version(); }
  /// Canonical fingerprint of the primary's newest snapshot (0 = none).
  std::uint64_t primary_fingerprint() const;

 private:
  Options options_;
  ChannelFaultInjector faults_;
  ReplicationBus bus_;
  SnapshotStore store_;
  SnapshotStore::Ptr base_;  // the delta base: the last version published
  std::vector<std::unique_ptr<ReplicaStore>> replicas_;
  std::unique_ptr<FailoverCoordinator> coordinator_;
  bool started_ = false;

  obs::Counter full_frames_;
  obs::Counter delta_frames_;
  obs::Counter resync_frames_;
  obs::Counter wire_bytes_;
  std::vector<obs::Gauge> lag_gauges_;
};

}  // namespace remos::service
