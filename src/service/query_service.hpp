// Concurrent Remos query service (the serving layer in front of the
// Modeler).
//
// The paper positions the Modeler as a long-lived session many
// network-aware applications query concurrently (§3, §5), but the Modeler
// itself is a single-threaded library: a query issued mid-poll would
// observe torn collector state.  The QueryService is the serving skeleton
// that makes concurrent use safe and bounded:
//
//   poller thread ──> publishes immutable versioned ModelSnapshots
//                     (SnapshotStore: pointer swap under a tiny spinlock)
//   client threads ─> admission control (bounded in-flight count)
//                     ──> work queue ──> worker pool answers against the
//                     snapshot current at execution time
//
// Serving guarantees:
//   - No contended locking on the answer hot path: a worker picks up the
//     current snapshot (a refcount bump under the store's spinlock) and
//     runs const Modeler queries against that immutable copy.
//   - Every query carries a wall-clock deadline.  The caller always gets
//     a structured response by its deadline -- kAnswered, kStale,
//     kOverloaded, kExpired or kError; never a hang, and never an
//     exception across the API boundary.
//   - Staleness SLO: if the freshest snapshot is older (on the model
//     clock) than the query's staleness budget, the answer is served
//     anyway -- with PR 1's decayed accuracy, since the snapshot clock
//     keeps advancing -- and flagged kStale instead of kAnswered.
//   - Overload shedding: when the bounded queue is full, excess queries
//     are shed immediately with kOverloaded, so admitted-query latency
//     stays bounded by queue depth x per-query cost at any offered load.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/flows.hpp"
#include "core/graph.hpp"
#include "core/logical.hpp"
#include "core/modeler.hpp"
#include "obs/obs.hpp"
#include "service/endpoint.hpp"
#include "service/snapshot_store.hpp"
#include "service/tenant_admission.hpp"

namespace remos::service {

template <typename Response>
class ResultCache;  // service/result_cache.hpp

// The query/response vocabulary (QueryStatus, GraphQuery, FlowInfoQuery,
// FlowBatchInfoQuery, ResponseMeta, GraphResponse, FlowInfoResponse,
// FlowBatchResponse) and the FlowInfoEndpoint interface live in
// service/endpoint.hpp, shared by every callable surface.

/// Monitoring snapshot.  submitted == answered + stale + degraded + shed
/// + expired + errors once the service is idle (counts are client-visible
/// outcomes).  Every count reads one of the service's remos_service_*
/// registry counters (under its set_obs labels): each event counts once.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t answered = 0;
  std::uint64_t stale = 0;
  /// Brownout answers: served from the cache with kDegraded instead of
  /// being shed.
  std::uint64_t degraded = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t errors = 0;
  std::uint64_t polls = 0;
  std::uint64_t snapshot_version = 0;
  /// Fresh result-cache hits (exact current-version match; answered
  /// without consuming an admission slot or a worker).
  std::uint64_t cache_hits = 0;
  /// Explicit flow_info_batch calls answered (each counted once however
  /// many sub-queries it carried).
  std::uint64_t batch_queries = 0;
  std::size_t in_flight_high_water = 0;
  /// Service-side completion latency quantiles (executed queries only),
  /// conservative bucket upper bounds, read from this service's own
  /// remos_service_latency_seconds series (under its set_obs labels).
  /// An unwired service keeps no histogram, so they read 0 until set_obs.
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
};

class QueryService : public FlowInfoEndpoint {
 public:
  struct Options {
    /// Worker threads answering queries.
    std::size_t workers = 4;
    /// Admission bound: queries in flight (queued + executing) beyond
    /// this are shed with kOverloaded (the TenantAdmission budget).
    std::size_t queue_capacity = 64;
    /// Fraction of the budget reserved as weighted per-tenant slices;
    /// the rest is a shared pool (see TenantAdmission::Options).
    double reserved_fraction = 0.75;
    /// Deadline for queries that do not carry their own.
    std::chrono::microseconds default_deadline{100'000};
    /// Staleness SLO for queries that do not carry their own: answers
    /// from snapshots older than this (model clock) are flagged kStale.
    Seconds staleness_slo = 10.0;
    /// Wall-clock pacing between background poll steps.
    std::chrono::microseconds poll_interval{2'000};
    /// Result-cache fingerprints retained per response type; 0 disables
    /// caching and brownout entirely (default: existing callers see the
    /// exact pre-cache service).
    std::size_t cache_capacity = 0;
  };

  explicit QueryService(Options options);
  QueryService() : QueryService(Options{}) {}
  ~QueryService() override;

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Wires metrics and flight-recorder events: per-status query
  /// counters, queue depth, latency and deadline-slack histograms,
  /// snapshot gauges, and shed-episode / publish events.  Every series
  /// carries `labels` (a replica passes {replica}); services sharing one
  /// registry need distinct labels, or they share series and each
  /// stats() reports the sum.  Call before start(); handles are resolved
  /// once and the hot path stays lock-free.  Without it the counters
  /// count in a registry the service owns and every other sink is a
  /// no-op.
  void set_obs(const obs::Obs& o, const obs::Labels& labels = {});

  /// Starts the worker pool.  With `poll_step`, also starts a background
  /// poller thread that invokes it every poll_interval until stop() --
  /// the step typically drives CollectorSet::poll_all / the simulator one
  /// period and publishes a fresh snapshot (see CmuHarness::serve).
  void start();
  void start(std::function<void()> poll_step);
  void stop();

  /// Publishes an immutable snapshot; callable from the poll step (via
  /// collector hooks) or directly from tests.
  void publish(collector::NetworkModel model, Seconds model_now);

  /// Advances the service's model clock without publishing (a poll round
  /// that yielded nothing new still ages the snapshots).
  void note_model_now(Seconds model_now);
  Seconds model_now() const {
    return model_now_.load(std::memory_order_acquire);
  }

  /// Registers a tenant for weighted fair admission and returns its id
  /// (stamp it on queries / hand it to a RemosClient).  Callable before
  /// or after set_obs, and while serving.
  int register_tenant(const std::string& name, double weight);

  /// Synchronous query entry points (FlowInfoEndpoint), callable from
  /// any thread.  Always return by the query's deadline; never throw.
  GraphResponse get_graph(GraphQuery query) override;
  FlowInfoResponse flow_info(FlowInfoQuery query) override;
  /// Explicit batch: one admission slot and one snapshot for the whole
  /// batch, cached under the batch's own fingerprint.
  FlowBatchResponse flow_info_batch(FlowBatchInfoQuery query) override;

  const SnapshotStore& snapshots() const { return store_; }
  const TenantAdmission& admission() const { return admission_; }
  /// Mutable admission surface: tests pre-occupy slots to drive the
  /// shed/brownout path deterministically.  Slots acquired here must be
  /// released here.
  TenantAdmission& admission() { return admission_; }
  const ResultCache<GraphResponse>* graph_cache() const {
    return graph_cache_.get();
  }
  const ResultCache<FlowInfoResponse>* flow_cache() const {
    return flow_cache_.get();
  }
  const ResultCache<FlowBatchResponse>* batch_cache() const {
    return batch_cache_.get();
  }
  const Options& options() const { return options_; }
  ServiceStats stats() const;

 private:
  template <typename Response>
  struct Pending {
    std::promise<Response> promise;
    std::atomic<bool> abandoned{false};
    std::chrono::steady_clock::time_point arrived;
    std::chrono::steady_clock::time_point deadline;
    int tenant = TenantAdmission::kDefaultTenant;
  };

  /// The one serving path of every entry point: fresh cache hit ->
  /// admission -> brownout or shed -> queue -> wait for the worker.
  /// `solve(modeler, query, response)` fills the payload on a worker
  /// against the current snapshot; the executed answer is then cached
  /// under the query's fingerprint in `cache`.
  template <typename Response, typename Query, typename Solve>
  Response submit(ResultCache<Response>* cache, Query query, Solve solve);
  template <typename Response, typename Fn>
  void run_job(const std::shared_ptr<Pending<Response>>& state,
               Fn&& execute);
  template <typename Response, typename Query, typename Solve>
  /// Executes `query` against the current snapshot; sets `taken_at` to
  /// that snapshot's model clock (the cache entry's brownout anchor).
  /// Its trace is timed from `arrived`, the submission.
  Response answer(const Query& query, Seconds staleness_budget,
                  std::chrono::steady_clock::time_point arrived,
                  const Solve& solve, Seconds& taken_at);
  /// Fresh-hit fast path: serves `key` from `cache` iff the cached
  /// version matches the store's current version.  O(1): no admission
  /// slot, no worker, no Modeler.
  template <typename Response>
  std::optional<Response> cache_fresh_hit(ResultCache<Response>* cache,
                                          const std::string& key,
                                          Seconds staleness_budget);
  /// Brownout rung: any-version cached answer, accuracy discounted by
  /// 2^(-age / 30 s) (model-clock age of its snapshot), status
  /// kDegraded.  nullopt when the cache has nothing (or `key` is empty:
  /// caching off).
  template <typename Response>
  std::optional<Response> cache_brownout(ResultCache<Response>* cache,
                                         const std::string& key);
  /// Inserts an executed answer into the cache with the `taken_at` of
  /// the snapshot that answered it.  The payload is stored without its
  /// trace; the cache holds no snapshot.
  template <typename Response>
  void cache_store(ResultCache<Response>* cache, const std::string& key,
                   const Response& response, Seconds taken_at);
  /// Points the counters stats() reads at `metrics`, under `labels`.
  void resolve_counters(obs::MetricsRegistry& metrics,
                        const obs::Labels& labels);
  void count_outcome(QueryStatus status) {
    status_counters_[static_cast<std::size_t>(status)].inc();
  }
  void note_shed(bool shed);

  void worker_loop();
  void poller_loop(std::function<void()> poll_step);

  Options options_;
  SnapshotStore store_;
  TenantAdmission admission_;
  std::unique_ptr<ResultCache<GraphResponse>> graph_cache_;
  std::unique_ptr<ResultCache<FlowInfoResponse>> flow_cache_;
  std::unique_ptr<ResultCache<FlowBatchResponse>> batch_cache_;
  std::atomic<double> model_now_{0.0};

  std::mutex mutex_;  // guards queue_, stopping_, started_
  std::condition_variable queue_cv_;
  std::condition_variable stop_cv_;  // wakes the poller's pacing sleep
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  bool started_ = false;
  std::vector<std::thread> workers_;
  std::thread poller_;

  // The counts stats() reports: resolved in own_metrics_ at
  // construction, re-pointed at the deployment's registry by set_obs.
  obs::MetricsRegistry own_metrics_;
  std::array<obs::Counter, obs::kQueryStatusCount> status_counters_;
  obs::Counter submitted_counter_;
  obs::Counter polls_counter_;
  obs::Counter cache_hit_counter_;
  obs::Counter batch_counter_;

  // Observability (no-op sinks until set_obs).
  obs::FlightRecorder* recorder_ = nullptr;
  core::ModelerObs modeler_obs_;
  obs::Gauge queue_depth_gauge_;
  obs::Gauge snapshot_version_gauge_;
  obs::Gauge snapshot_age_gauge_;
  obs::Histogram latency_;        // seconds, submission -> response
  obs::Histogram deadline_slack_; // seconds left when the answer landed
  std::atomic<bool> shedding_{false};  // edge detector for episode events

  // History series (telemetry plane; null until set_obs with a store):
  // per-status latency in ms, shed 0/1 per submit, snapshot staleness at
  // answer time.  Stamped on the model clock so they line up with the
  // simulator's and collector's link series.
  std::array<obs::TimeSeries*, obs::kQueryStatusCount> latency_series_{};
  obs::TimeSeries* shed_series_ = nullptr;
  obs::TimeSeries* staleness_series_ = nullptr;
};

}  // namespace remos::service
