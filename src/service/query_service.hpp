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
//                     ──> execution slot (at most `workers` at once,
//                     waiters served in arrival order) ──> the caller's
//                     own thread answers against the snapshot current
//                     at execution time
//
// Serving guarantees:
//   - No contended locking on the answer hot path: a query picks up the
//     current snapshot (a refcount bump under the store's spinlock) and
//     runs const Modeler queries against that immutable copy.
//   - Every query carries a wall-clock deadline, which bounds its wait
//     for an execution slot: a query still waiting at its deadline
//     returns kExpired.  A query that holds a slot runs to
//     completion, so its answer can land after the deadline; that work is
//     bounded CPU work over an immutable snapshot, with no I/O.  The
//     caller always gets a structured response -- kAnswered, kStale,
//     kDegraded, kOverloaded, kExpired or kError; never a hang, and never
//     an exception across the API boundary.
//   - Staleness SLO: if the freshest snapshot is older (on the model
//     clock) than the query's staleness budget, the answer is served
//     anyway -- with PR 1's decayed accuracy, since the snapshot clock
//     keeps advancing -- and flagged kStale instead of kAnswered.
//   - Overload shedding: when the admission budget is full, excess
//     queries are shed immediately with kOverloaded, so admitted-query
//     latency stays bounded by the budget x per-query cost at any
//     offered load.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

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
  /// without consuming an admission slot or an execution slot).
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
    /// Queries executing at once, each on its caller's thread.
    std::size_t workers = 4;
    /// Admission bound: queries in flight (waiting + executing) beyond
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

  /// Wires metrics, history series and flight-recorder events:
  /// per-status query counters, queue depth, latency and deadline-slack
  /// histograms, snapshot gauges, the service.* series (one point per
  /// model-clock step, see note_model_now), and shed-episode / publish
  /// events.  Every metric series carries `labels` (a replica passes
  /// {replica}); services sharing one registry need distinct labels, or
  /// they share series and each stats() reports the sum.  Call before
  /// start(); handles are resolved once and the hot path stays
  /// lock-free.  Without it the counters count in a registry the service
  /// owns and every other sink is a no-op.
  void set_obs(const obs::Obs& o, const obs::Labels& labels = {});

  /// Opens `workers` execution slots; callers already waiting take them
  /// in arrival order.  Starts no query thread: admitted queries run on
  /// their callers' threads.  With `poll_step`, also starts a background
  /// poller thread that invokes it every poll_interval until stop() --
  /// the step typically drives CollectorSet::poll_all / the simulator one
  /// period and publishes a fresh snapshot (see CmuHarness::serve).
  /// Before start(), admitted queries wait for a slot until their
  /// deadline.
  void start();
  void start(std::function<void()> poll_step);
  /// Stops the poller, lets the queries already waiting run, and returns
  /// once every admitted query has left the service.  Later queries get
  /// kError "service stopped".
  void stop();

  /// Publishes an immutable snapshot; callable from the poll step (via
  /// collector hooks) or directly from tests.
  void publish(collector::NetworkModel model, Seconds model_now);

  /// Advances the service's model clock without publishing (a poll round
  /// that yielded nothing new still ages the snapshots).  Each advance
  /// ends a model-clock step: when series are wired, it appends one
  /// point per service.* series for the queries of the step, stamped
  /// with the model time they saw --
  ///   service.latency_ms  mean latency of the step's executed queries
  ///   service.shed        shed / (admitted + shed) over the step
  ///   service.staleness   model-clock age of the snapshot they read
  /// A series with nothing to report for the step gets no point.
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
  /// Outcome of a caller's wait at the execution-slot gate.
  enum class Gate { kGranted, kExpired, kStopped };
  /// A caller waiting for an execution slot; lives on its stack.
  struct Waiter {
    std::condition_variable cv;
    bool granted = false;
  };
  class Exit;

  /// The one serving path of every entry point: fresh cache hit ->
  /// admission -> brownout or shed -> execution slot -> answer on the
  /// caller's thread.  `solve(modeler, query, response)` fills the
  /// payload against the current snapshot; the executed answer is then
  /// cached under the query's fingerprint in `cache`.
  template <typename Response, typename Query, typename Solve>
  Response submit(ResultCache<Response>* cache, Query query, Solve solve);
  /// Takes an execution slot, waiting in arrival order until `deadline`
  /// when none is free.  kStopped: the service is stopping and the caller
  /// did not enter; otherwise it must leave() exactly once.
  Gate enter(std::chrono::steady_clock::time_point deadline);
  /// The caller's last touch of the service: hands its slot (if it holds
  /// one) to the oldest waiter or back to the free count.
  void leave(bool holds_slot);
  /// Hands free slots to the oldest waiters.  Caller holds mutex_.
  void grant_waiters();
  template <typename Response, typename Query, typename Solve>
  /// Executes `query` against the current snapshot; sets `taken_at` to
  /// that snapshot's model clock (the cache entry's brownout anchor).
  /// Its trace is timed from `arrived`, the submission.
  Response answer(const Query& query, Seconds staleness_budget,
                  std::chrono::steady_clock::time_point arrived,
                  const Solve& solve, Seconds& taken_at);
  /// Fresh-hit fast path: serves `key` from `cache` iff the cached
  /// version matches the store's current version.  O(1): no admission
  /// slot, no execution slot, no Modeler.
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
  /// Ends the model-clock step when `model_now` advances the clock:
  /// appends the step's series points and returns true (the caller then
  /// stores the new time).  Caller holds clock_mutex_.
  bool end_step(Seconds model_now);

  void poller_loop(std::function<void()> poll_step);

  Options options_;
  SnapshotStore store_;
  TenantAdmission admission_;
  std::unique_ptr<ResultCache<GraphResponse>> graph_cache_;
  std::unique_ptr<ResultCache<FlowInfoResponse>> flow_cache_;
  std::unique_ptr<ResultCache<FlowBatchResponse>> batch_cache_;
  std::atomic<double> model_now_{0.0};  // written under clock_mutex_

  // The execution-slot gate.  Slots exist only while started.
  std::mutex mutex_;  // guards the members below, through started_
  std::condition_variable stop_cv_;  // wakes the poller and stop()
  std::size_t free_slots_ = 0;
  std::deque<Waiter*> waiters_;  // oldest first
  std::size_t callers_ = 0;  // entered and not yet left
  bool stopping_ = false;
  bool started_ = false;
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

  // History series (telemetry plane; null until set_obs with a store),
  // one point per model-clock step, stamped on the model clock so they
  // line up with the simulator's and collector's link series.  The
  // step's baselines and the clock's writers share clock_mutex_.
  std::mutex clock_mutex_;
  obs::TimeSeries* latency_series_ = nullptr;
  obs::TimeSeries* shed_series_ = nullptr;
  obs::TimeSeries* staleness_series_ = nullptr;
  std::uint64_t step_executed_ = 0;
  double step_latency_sum_ = 0;
  std::uint64_t step_admitted_ = 0;
  std::uint64_t step_shed_ = 0;
};

}  // namespace remos::service
