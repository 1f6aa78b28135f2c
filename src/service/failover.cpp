#include "service/failover.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace remos::service {

// ---------------------------------------------------------------------------
// FailoverCoordinator

FailoverCoordinator::FailoverCoordinator(std::vector<ReplicaStore*> replicas,
                                         Options options, obs::Obs obs)
    : replicas_(std::move(replicas)), options_(options) {
  recorder_ = obs.recorder;
  obs::MetricsRegistry& m = obs.metrics ? *obs.metrics : own_metrics_;
  queries_ = m.counter("remos_failover_queries_total", {},
                       "Queries routed through the coordinator.");
  rerouted_ = m.counter(
      "remos_failover_reroutes_total", {},
      "Queries answered by other than the first replica tried.");
  exhausted_ = m.counter(
      "remos_failover_exhausted_total", {},
      "Queries that burned every attempt without an ok answer.");
  unrouted_ = m.counter(
      "remos_failover_unrouted_total", {},
      "Queries with no routable replica (synthesized kError).");
  degraded_fallback_ = m.counter(
      "remos_failover_degraded_fallback_total", {},
      "Queries answered by an unhealthy-but-serving fallback replica.");
  fast_expired_ = m.counter(
      "remos_failover_fast_expired_total", {},
      "Queries failed fast: deadline below one minimum attempt slice.");
  if (obs.metrics)
    healthy_gauge_ =
        obs.metrics->gauge("remos_failover_healthy_replicas", {},
                           "Replicas currently in the routing rotation.");
}

bool FailoverCoordinator::healthy(std::size_t i) const {
  const ReplicaStore* r = replicas_[i];
  if (!r->serving() || r->needs_full()) return false;
  const std::uint64_t applied = r->applied_version();
  if (applied == 0) return false;
  const std::uint64_t primary =
      primary_version_.load(std::memory_order_acquire);
  if (primary > applied && primary - applied > options_.max_lag_versions)
    return false;
  return true;
}

std::size_t FailoverCoordinator::healthy_count() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < replicas_.size(); ++i)
    if (healthy(i)) ++n;
  return n;
}

void FailoverCoordinator::note_publish(std::uint64_t version, Seconds now) {
  primary_version_.store(version, std::memory_order_release);
  const std::size_t n = healthy_count();
  healthy_gauge_.set(static_cast<double>(n));
  if (n == 0 && !degraded_) {
    degraded_ = true;
    if (recorder_)
      recorder_->record(obs::EventSeverity::kWarn, "failover",
                        "degraded_begin",
                        "no healthy replica; serving stale fallbacks", now);
  } else if (n > 0 && degraded_) {
    degraded_ = false;
    if (recorder_)
      recorder_->record(obs::EventSeverity::kInfo, "failover", "degraded_end",
                        std::to_string(n) + " replica(s) healthy again", now);
  }
}

template <typename Response, typename Query, typename Fn>
Response FailoverCoordinator::route(Query& query, Fn&& call) {
  queries_.inc();
  const std::size_t n = replicas_.size();
  Response last{};
  if (n == 0) {
    unrouted_.inc();
    last.meta.status = QueryStatus::kError;
    last.meta.error = "failover: no replica available";
    return last;
  }

  // Slice the caller's total budget across attempts so a reroute after a
  // slow or dead replica still lands inside the original deadline.
  int attempts_allowed = std::max(1, options_.max_attempts);
  const std::chrono::microseconds total = query.deadline.value_or(
      replicas_[0]->service().options().default_deadline);
  if (options_.min_attempt_slice.count() > 0) {
    // Clamp: fewer, viable attempts beat many doomed ones.  A budget that
    // cannot cover even one slice fails fast without touching a replica.
    if (total < options_.min_attempt_slice) {
      fast_expired_.inc();
      last.meta.status = QueryStatus::kExpired;
      last.meta.error = "failover: deadline below minimum attempt slice";
      return last;
    }
    while (attempts_allowed > 1 &&
           total / attempts_allowed < options_.min_attempt_slice)
      --attempts_allowed;
  }
  query.deadline = total / attempts_allowed;

  const std::size_t start = cursor_.fetch_add(1, std::memory_order_relaxed);
  std::vector<char> tried(n, 0);
  int attempts = 0;
  // Pass 0 routes only to healthy replicas; pass 1 falls back to any
  // serving, ever-synced replica (a stale answer beats no answer).
  for (int pass = 0; pass < 2 && attempts < attempts_allowed; ++pass) {
    for (std::size_t k = 0; k < n && attempts < attempts_allowed; ++k) {
      const std::size_t i = (start + k) % n;
      if (tried[i]) continue;
      ReplicaStore* r = replicas_[i];
      const bool eligible = pass == 0
                                ? healthy(i)
                                : (r->serving() && r->applied_version() > 0);
      if (!eligible) continue;
      tried[i] = 1;
      ++attempts;
      Response resp = call(*r, query);
      if (resp.meta.ok()) {
        // A reroute is any answer served by other than round-robin's
        // natural pick -- whether that pick was skipped as unhealthy or
        // tried and failed.
        if (i != start % n) rerouted_.inc();
        if (pass == 1) degraded_fallback_.inc();
        return resp;
      }
      last = std::move(resp);
    }
  }

  if (attempts == 0) {
    unrouted_.inc();
    last.meta.status = QueryStatus::kError;
    last.meta.error = "failover: no replica available";
  } else {
    exhausted_.inc();
  }
  return last;
}

GraphResponse FailoverCoordinator::get_graph(GraphQuery query) {
  return route<GraphResponse>(query, [](ReplicaStore& r, GraphQuery& q) {
    return r.service().get_graph(q);
  });
}

FlowInfoResponse FailoverCoordinator::flow_info(FlowInfoQuery query) {
  return route<FlowInfoResponse>(query,
                                 [](ReplicaStore& r, FlowInfoQuery& q) {
                                   return r.service().flow_info(q);
                                 });
}

FlowBatchResponse FailoverCoordinator::flow_info_batch(
    FlowBatchInfoQuery query) {
  return route<FlowBatchResponse>(
      query, [](ReplicaStore& r, FlowBatchInfoQuery& q) {
        return r.service().flow_info_batch(q);
      });
}

FailoverCoordinator::Stats FailoverCoordinator::stats() const {
  Stats s;
  s.queries = queries_.value();
  s.rerouted = rerouted_.value();
  s.exhausted = exhausted_.value();
  s.unrouted = unrouted_.value();
  s.degraded_fallback = degraded_fallback_.value();
  s.fast_expired = fast_expired_.value();
  return s;
}

// ---------------------------------------------------------------------------
// ReplicatedService

ReplicatedService::ReplicatedService(Options options, obs::Obs obs)
    : options_(options), faults_(options.seed), bus_(faults_) {
  replicas_.reserve(options_.replicas);
  std::vector<ReplicaStore*> raw;
  for (std::size_t i = 0; i < options_.replicas; ++i) {
    replicas_.push_back(std::make_unique<ReplicaStore>(
        static_cast<int>(i), ReplicaStore::Options{options_.service}, obs));
    ReplicaStore* r = replicas_.back().get();
    raw.push_back(r);
    bus_.subscribe([r](const std::vector<std::uint8_t>& frame, Seconds now) {
      r->on_frame(frame, now);
    });
  }
  coordinator_ = std::make_unique<FailoverCoordinator>(
      std::move(raw), options_.failover, obs);
  if (obs.metrics) {
    full_frames_ =
        obs.metrics->counter("remos_replication_frames_total",
                             {{"kind", "full"}}, "Frames sent by the primary.");
    delta_frames_ = obs.metrics->counter("remos_replication_frames_total",
                                         {{"kind", "delta"}},
                                         "Frames sent by the primary.");
    resync_frames_ = obs.metrics->counter(
        "remos_replication_frames_total", {{"kind", "resync"}},
        "Targeted full frames answering a needs-full flag.");
    wire_bytes_ = obs.metrics->counter("remos_replication_wire_bytes_total",
                                       {}, "Encoded frame bytes produced.");
    for (std::size_t i = 0; i < options_.replicas; ++i)
      lag_gauges_.push_back(obs.metrics->gauge(
          "remos_replication_lag_versions",
          {{"replica", std::to_string(i)}},
          "Versions this replica trails the primary by."));
  }
}

ReplicatedService::~ReplicatedService() { stop(); }

void ReplicatedService::start() {
  if (started_) return;
  started_ = true;
  for (auto& r : replicas_) r->start();
}

void ReplicatedService::stop() {
  if (!started_) return;
  started_ = false;
  for (auto& r : replicas_) r->stop();
}

void ReplicatedService::publish(const collector::NetworkModel& model,
                                Seconds now) {
  const SnapshotStore::Ptr snap = store_.publish(model, now);
  const std::uint64_t v = snap->version;

  // Deltas anchor on the previous version's held Ptr; every full_every-th
  // version (and any version without a base) ships full so a quiet
  // channel still converges from scratch within one anchor period.
  std::vector<std::uint8_t> wire;
  bool is_full = true;
  if (base_ &&
      (options_.full_every == 0 || (v - 1) % options_.full_every != 0)) {
    wire = collector::encode_delta(base_->model, base_->version, snap->model,
                                   v, now);
    is_full = false;
  } else {
    wire = collector::encode_full(snap->model, v, now);
  }
  (is_full ? full_frames_ : delta_frames_).inc();
  wire_bytes_.inc(wire.size());

  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const int id = static_cast<int>(i);
    if (faults_.crashed(id, now))
      replicas_[i]->note_outage(now);
    else
      replicas_[i]->note_alive(now);
    bus_.send(id, wire, now);
  }

  // Targeted resync: answer gap/restart flags with a full frame through
  // the same faulty channel (it may be lost again; next round retries).
  std::vector<std::uint8_t> full;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const int id = static_cast<int>(i);
    if (!replicas_[i]->needs_full() || faults_.crashed(id, now)) continue;
    if (full.empty())
      full = is_full ? wire : collector::encode_full(snap->model, v, now);
    resync_frames_.inc();
    wire_bytes_.inc(full.size());
    bus_.send(id, full, now);
  }

  base_ = snap;

  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const std::uint64_t applied = replicas_[i]->applied_version();
    if (i < lag_gauges_.size())
      lag_gauges_[i].set(static_cast<double>(v > applied ? v - applied : 0));
  }
  coordinator_->note_publish(v, now);
}

std::uint64_t ReplicatedService::primary_fingerprint() const {
  const SnapshotStore::Ptr snap = store_.current();
  return snap ? collector::model_fingerprint(snap->model) : 0;
}

}  // namespace remos::service
