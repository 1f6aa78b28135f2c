#include "service/query_service.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "service/result_cache.hpp"
#include "util/error.hpp"

namespace remos::service {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_us(Clock::time_point from, Clock::time_point to) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count();
  return us > 0 ? static_cast<std::uint64_t>(us) : 0;
}

std::chrono::nanoseconds elapsed(Clock::time_point from,
                                 Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from);
}

double to_seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// The trace of an answer served from the cache: one span, `name`, from
/// `since` to now.
obs::SpanTree one_span(const char* name, Clock::time_point since) {
  obs::TraceBuilder tb(since);
  tb.add_complete(name, 0, elapsed_us(since, Clock::now()));
  return tb.take();
}

}  // namespace

/// Releases an admitted caller's hold on the service as it returns: its
/// admission slot, then its place at the execution-slot gate (the last
/// touch of the service, so stop() can wait for it).
class QueryService::Exit {
 public:
  Exit(QueryService& service, int tenant, bool holds_slot)
      : service_(service), tenant_(tenant), holds_slot_(holds_slot) {}
  ~Exit() {
    service_.admission_.release(tenant_);
    service_.leave(holds_slot_);
  }
  Exit(const Exit&) = delete;
  Exit& operator=(const Exit&) = delete;

 private:
  QueryService& service_;
  int tenant_;
  bool holds_slot_;
};

QueryService::QueryService(Options options)
    : options_(options),
      admission_({options.queue_capacity, options.reserved_fraction}) {
  if (options_.workers == 0)
    throw InvalidArgument("QueryService: zero workers");
  if (options_.default_deadline.count() <= 0)
    throw InvalidArgument("QueryService: non-positive default deadline");
  if (options_.staleness_slo < 0)
    throw InvalidArgument("QueryService: negative staleness SLO");
  if (options_.poll_interval.count() <= 0)
    throw InvalidArgument("QueryService: non-positive poll interval");
  graph_cache_ = std::make_unique<ResultCache<GraphResponse>>(
      ResultCache<GraphResponse>::Options{options_.cache_capacity});
  flow_cache_ = std::make_unique<ResultCache<FlowInfoResponse>>(
      ResultCache<FlowInfoResponse>::Options{options_.cache_capacity});
  batch_cache_ = std::make_unique<ResultCache<FlowBatchResponse>>(
      ResultCache<FlowBatchResponse>::Options{options_.cache_capacity});
  resolve_counters(own_metrics_, {});
}

QueryService::~QueryService() { stop(); }

int QueryService::register_tenant(const std::string& name, double weight) {
  return admission_.register_tenant(name, weight);
}

void QueryService::resolve_counters(obs::MetricsRegistry& metrics,
                                    const obs::Labels& labels) {
  for (int s = 0; s < obs::kQueryStatusCount; ++s)
    status_counters_[static_cast<std::size_t>(s)] = metrics.counter(
        "remos_service_queries_total",
        obs::with_label(labels, "status",
                        obs::to_string(static_cast<QueryStatus>(s))),
        "Query outcomes by client-visible status");
  submitted_counter_ =
      metrics.counter("remos_service_queries_submitted_total", labels,
                      "Queries offered to admission control");
  polls_counter_ = metrics.counter("remos_service_polls_total", labels,
                                   "Background poll steps executed");
  cache_hit_counter_ = metrics.counter(
      "remos_service_cache_hits_total", labels,
      "Fresh result-cache hits (current snapshot version)");
  batch_counter_ = metrics.counter(
      "remos_service_batch_queries_total", labels,
      "Explicit flow_info_batch calls, however many sub-queries each");
}

void QueryService::set_obs(const obs::Obs& o, const obs::Labels& labels) {
  if (o.metrics) {
    resolve_counters(*o.metrics, labels);
    admission_.set_metrics(*o.metrics, labels);
    queue_depth_gauge_ = o.metrics->gauge(
        "remos_service_queue_depth", labels,
        "Admitted queries waiting for an execution slot");
    snapshot_version_gauge_ =
        o.metrics->gauge("remos_service_snapshot_version", labels,
                         "Version of the current published snapshot");
    snapshot_age_gauge_ = o.metrics->gauge(
        "remos_service_snapshot_age_seconds", labels,
        "Model-clock age of the snapshot at the last answer");
    latency_ = o.metrics->histogram(
        "remos_service_latency_seconds", obs::default_time_buckets(), labels,
        "Wall-clock submission-to-response latency of executed queries");
    deadline_slack_ = o.metrics->histogram(
        "remos_service_deadline_slack_seconds", obs::default_time_buckets(),
        labels, "Wall-clock budget remaining when the answer landed");
    modeler_obs_ = core::ModelerObs::resolve(o);
  }
  if (o.series) {
    std::lock_guard<std::mutex> lk(clock_mutex_);
    latency_series_ = &o.series->series("service.latency_ms");
    shed_series_ = &o.series->series("service.shed");
    staleness_series_ = &o.series->series("service.staleness");
    // The first step's deltas count from here, in the counters just
    // resolved.
    step_executed_ = latency_.count();
    step_latency_sum_ = latency_.sum();
    step_admitted_ = admission_.admitted();
    step_shed_ = admission_.shed();
  }
  recorder_ = o.recorder;
}

void QueryService::start() { start(std::function<void()>{}); }

void QueryService::start(std::function<void()> poll_step) {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (started_) throw Error("QueryService: already started");
    started_ = true;
    stopping_ = false;
    free_slots_ = options_.workers;
    grant_waiters();
  }
  if (poll_step)
    poller_ = std::thread(
        [this, step = std::move(poll_step)] { poller_loop(step); });
}

void QueryService::stop() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (!started_) return;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (poller_.joinable()) poller_.join();
  // Queries already waiting still take slots as executing ones leave.
  std::unique_lock<std::mutex> lk(mutex_);
  stop_cv_.wait(lk, [this] { return callers_ == 0; });
  started_ = false;
  free_slots_ = 0;
}

QueryService::Gate QueryService::enter(Clock::time_point deadline) {
  std::unique_lock<std::mutex> lk(mutex_);
  if (stopping_) return Gate::kStopped;
  ++callers_;
  if (free_slots_ > 0 && waiters_.empty()) {
    --free_slots_;
    return Gate::kGranted;
  }
  Waiter me;
  waiters_.push_back(&me);
  queue_depth_gauge_.set(static_cast<double>(waiters_.size()));
  if (me.cv.wait_until(lk, deadline, [&me] { return me.granted; }))
    return Gate::kGranted;
  waiters_.erase(std::find(waiters_.begin(), waiters_.end(), &me));
  queue_depth_gauge_.set(static_cast<double>(waiters_.size()));
  return Gate::kExpired;
}

void QueryService::leave(bool holds_slot) {
  std::lock_guard<std::mutex> lk(mutex_);
  if (holds_slot) {
    ++free_slots_;
    grant_waiters();
  }
  if (--callers_ == 0 && stopping_) stop_cv_.notify_all();
}

void QueryService::grant_waiters() {
  while (free_slots_ > 0 && !waiters_.empty()) {
    Waiter* oldest = waiters_.front();
    waiters_.pop_front();
    --free_slots_;
    oldest->granted = true;
    oldest->cv.notify_one();
  }
  queue_depth_gauge_.set(static_cast<double>(waiters_.size()));
}

void QueryService::publish(collector::NetworkModel model, Seconds model_now) {
  {
    // The ending step's points describe the snapshot its queries read,
    // so they are taken before the new one lands.
    std::lock_guard<std::mutex> lk(clock_mutex_);
    const bool advances = end_step(model_now);
    store_.publish(std::move(model), model_now);
    if (advances) model_now_.store(model_now, std::memory_order_release);
  }
  snapshot_version_gauge_.set(static_cast<double>(store_.version()));
  if (recorder_)
    recorder_->record(obs::EventSeverity::kInfo, "service",
                      "snapshot_publish",
                      "version " + std::to_string(store_.version()),
                      model_now);
}

void QueryService::note_model_now(Seconds model_now) {
  std::lock_guard<std::mutex> lk(clock_mutex_);
  if (end_step(model_now))
    model_now_.store(model_now, std::memory_order_release);
}

bool QueryService::end_step(Seconds model_now) {
  const Seconds seen = model_now_.load(std::memory_order_relaxed);
  if (!(model_now > seen)) return false;
  if (!latency_series_) return true;  // no series wired
  // Deltas since the previous step, all stamped with the model time the
  // step's queries saw.  Latency and staleness come from the latency
  // histogram, so they need the metrics registry wired as well.
  const std::uint64_t executed = latency_.count();
  const double latency_sum = latency_.sum();
  const std::uint64_t admitted = admission_.admitted();
  const std::uint64_t shed = admission_.shed();
  if (executed > step_executed_) {
    latency_series_->append(
        seen, (latency_sum - step_latency_sum_) /
                  static_cast<double>(executed - step_executed_) * 1e3);
    if (const SnapshotStore::Ptr snap = store_.current())
      staleness_series_->append(seen, std::max(0.0, seen - snap->taken_at));
  }
  const std::uint64_t offered =
      (admitted - step_admitted_) + (shed - step_shed_);
  if (offered > 0)
    shed_series_->append(seen, static_cast<double>(shed - step_shed_) /
                                   static_cast<double>(offered));
  step_executed_ = executed;
  step_latency_sum_ = latency_sum;
  step_admitted_ = admitted;
  step_shed_ = shed;
  return true;
}

void QueryService::note_shed(bool shed) {
  // Edge-triggered: the recorder logs shed *episodes*, not every shed
  // query -- an overload burst is one event in, one event out.  The load
  // keeps the steady state from writing the shared flag.
  if (shedding_.load(std::memory_order_relaxed) == shed ||
      shedding_.exchange(shed, std::memory_order_relaxed) == shed)
    return;
  if (recorder_)
    recorder_->record(shed ? obs::EventSeverity::kWarn
                           : obs::EventSeverity::kInfo,
                      "service",
                      shed ? "shed_episode_begin" : "shed_episode_end",
                      shed ? "admission queue full; shedding"
                           : "admission recovered");
}

template <typename Response, typename Query, typename Solve>
Response QueryService::submit(ResultCache<Response>* cache, Query query,
                              Solve solve) {
  submitted_counter_.inc();
  const Seconds slo = query.max_staleness.value_or(options_.staleness_slo);
  // Every answer's latency, deadline and trace are timed from this one
  // reading.  A traced query takes the same path as any other; an answer
  // served from the cache carries one span.
  const auto arrived = Clock::now();
  const auto since_arrival = [arrived] {
    return elapsed(arrived, Clock::now());
  };
  std::string key = cache->enabled() ? canonical_key(query) : std::string{};
  if (!key.empty()) {
    if (std::optional<Response> hit = cache_fresh_hit(cache, key, slo)) {
      hit->meta.latency = since_arrival();
      if (query.trace) hit->meta.trace = one_span("cache_hit", arrived);
      cache_hit_counter_.inc();
      count_outcome(hit->meta.status);
      return std::move(*hit);
    }
  }

  const auto deadline =
      arrived + query.deadline.value_or(options_.default_deadline);
  const int tenant = query.tenant;
  Response r;
  if (!admission_.try_acquire(tenant)) {
    note_shed(true);
    // Brownout rung: a cached answer with discounted accuracy beats a
    // shed -- but it is always labelled kDegraded, never fresh.
    if (std::optional<Response> cached = cache_brownout(cache, key)) {
      r = std::move(*cached);
      if (query.trace) r.meta.trace = one_span("brownout", arrived);
    } else {
      r.meta.status = QueryStatus::kOverloaded;
    }
    r.meta.latency = since_arrival();
    count_outcome(r.meta.status);
    return r;
  }
  note_shed(false);

  const Gate gate = enter(deadline);
  if (gate == Gate::kStopped) {
    admission_.release(tenant);
    r.meta.status = QueryStatus::kError;
    r.meta.error = "service stopped";
    count_outcome(r.meta.status);
    return r;
  }
  const Exit exit(*this, tenant, gate == Gate::kGranted);
  if (gate == Gate::kExpired) {
    r.meta.status = QueryStatus::kExpired;
    r.meta.latency = since_arrival();
    count_outcome(r.meta.status);
    return r;
  }
  if (Clock::now() < deadline) {
    Seconds taken_at = 0;
    r = answer<Response>(query, slo, arrived, solve, taken_at);
    cache_store(cache, key, r, taken_at);
  } else {
    r.meta.status = QueryStatus::kExpired;
  }
  const auto done = Clock::now();
  r.meta.latency = elapsed(arrived, done);
  latency_.observe(to_seconds(done - arrived));
  deadline_slack_.observe(std::max(0.0, to_seconds(deadline - done)));
  count_outcome(r.meta.status);
  return r;
}

template <typename Response, typename Query, typename Solve>
Response QueryService::answer(const Query& query, Seconds staleness_budget,
                              std::chrono::steady_clock::time_point arrived,
                              const Solve& solve, Seconds& taken_at) {
  Response r;
  // Epoch = submission, so the "admission" span (admission and the wait
  // for an execution slot) lines up with the execution spans in one tree.
  obs::TraceBuilder tb(arrived);
  obs::TraceBuilder* tbp = query.trace ? &tb : nullptr;
  if (tbp) tb.add_complete("admission", 0, elapsed_us(arrived, Clock::now()));

  SnapshotStore::Ptr snap;
  {
    obs::TraceBuilder::Scoped span(tbp, "snapshot_pickup");
    snap = store_.current();
  }
  if (!snap) {
    r.meta.status = QueryStatus::kError;
    r.meta.error = "no snapshot published yet";
    if (tbp) r.meta.trace = tb.take();
    return r;
  }
  taken_at = snap->taken_at;
  const Seconds now = model_now();
  const Seconds age = std::max(0.0, now - taken_at);
  r.meta.snapshot_version = snap->version;
  r.meta.snapshot_age = age;
  snapshot_age_gauge_.set(age);
  // A fresh Modeler over the immutable snapshot: const queries, no
  // shared mutable state, nothing to lock.  The clock is pinned to the
  // model time observed at answer time, so accuracy keeps decaying
  // (PR 1) as the snapshot ages past its publication.  Metric handles
  // were pre-resolved at set_obs time; the trace builder (if any) is
  // owned by this one query.
  core::Modeler modeler(snap->model);
  modeler.set_clock([now] { return now; });
  modeler.set_obs(&modeler_obs_);
  modeler.set_trace(tbp);
  try {
    obs::TraceBuilder::Scoped span(tbp, "solve");
    solve(modeler, query, r);
    r.meta.status =
        age > staleness_budget ? QueryStatus::kStale : QueryStatus::kAnswered;
  } catch (const std::exception& e) {
    r.meta.status = QueryStatus::kError;
    r.meta.error = e.what();
  } catch (...) {
    r.meta.status = QueryStatus::kError;
    r.meta.error = "unknown error";
  }
  if (tbp) r.meta.trace = tb.take();
  return r;
}

template <typename Response>
std::optional<Response> QueryService::cache_fresh_hit(
    ResultCache<Response>* cache, const std::string& key,
    Seconds staleness_budget) {
  auto hit = cache->find(key);
  if (!hit || hit->version != store_.version()) return std::nullopt;
  Response r = std::move(hit->response);
  const Seconds age = std::max(0.0, model_now() - hit->taken_at);
  r.meta.status =
      age > staleness_budget ? QueryStatus::kStale : QueryStatus::kAnswered;
  r.meta.snapshot_version = hit->version;
  r.meta.snapshot_age = age;
  r.meta.from_cache = true;
  r.meta.error.clear();
  return r;
}

template <typename Response>
std::optional<Response> QueryService::cache_brownout(
    ResultCache<Response>* cache, const std::string& key) {
  if (key.empty()) return std::nullopt;
  auto hit = cache->find(key);
  if (!hit) return std::nullopt;
  Response r = std::move(hit->response);
  const Seconds age = std::max(0.0, model_now() - hit->taken_at);
  constexpr Seconds kHalflife = 30.0;
  discount_accuracy(r, std::exp2(-age / kHalflife));
  r.meta.status = QueryStatus::kDegraded;
  r.meta.snapshot_version = hit->version;
  r.meta.snapshot_age = age;
  r.meta.from_cache = true;
  r.meta.error.clear();
  return r;
}

template <typename Response>
void QueryService::cache_store(ResultCache<Response>* cache,
                               const std::string& key,
                               const Response& response, Seconds taken_at) {
  // Only executed payload-bearing answers are cacheable; kDegraded came
  // *from* the cache, and errors/sheds carry no payload.
  if (key.empty()) return;
  if (response.meta.status != QueryStatus::kAnswered &&
      response.meta.status != QueryStatus::kStale)
    return;
  Response payload = response;
  payload.meta.trace = obs::SpanTree{};  // a hit never returns this trace
  cache->insert(key, std::move(payload), response.meta.snapshot_version,
                taken_at);
}

GraphResponse QueryService::get_graph(GraphQuery query) {
  return submit(graph_cache_.get(), std::move(query),
                [](const core::Modeler& m, const GraphQuery& q,
                   GraphResponse& out) {
                  core::GraphResult gr =
                      m.get_graph_result(q.nodes, q.timeframe, q.options);
                  out.graph = std::move(gr.graph);
                  out.graph_status = gr.status;
                  out.unknown_nodes = std::move(gr.unknown_nodes);
                  // A structurally invalid query is still a service-level
                  // error; partial/unresolved topologies are answers.
                  if (gr.status == obs::GraphStatus::kInvalid)
                    throw InvalidArgument(gr.error);
                });
}

FlowInfoResponse QueryService::flow_info(FlowInfoQuery query) {
  return submit(flow_cache_.get(), std::move(query),
                [](const core::Modeler& m, const FlowInfoQuery& q,
                   FlowInfoResponse& out) {
                  out.result = m.flow_info(q.query);
                });
}

FlowBatchResponse QueryService::flow_info_batch(FlowBatchInfoQuery query) {
  batch_counter_.inc();
  // The whole batch is ONE admission unit: one tenant slot, one
  // execution slot, one snapshot -- that is the amortization the batch
  // API sells.
  return submit(batch_cache_.get(), std::move(query),
                [](const core::Modeler& m, const FlowBatchInfoQuery& q,
                   FlowBatchResponse& out) {
                  core::FlowBatchResult br = m.flow_info_batch(q.batch);
                  out.results = std::move(br.results);
                  out.errors = std::move(br.errors);
                });
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  const auto outcomes = [this](QueryStatus status) {
    return status_counters_[static_cast<std::size_t>(status)].value();
  };
  s.submitted = submitted_counter_.value();
  s.answered = outcomes(QueryStatus::kAnswered);
  s.stale = outcomes(QueryStatus::kStale);
  s.degraded = outcomes(QueryStatus::kDegraded);
  s.shed = outcomes(QueryStatus::kOverloaded);
  s.expired = outcomes(QueryStatus::kExpired);
  s.errors = outcomes(QueryStatus::kError);
  s.polls = polls_counter_.value();
  s.snapshot_version = store_.version();
  s.cache_hits = cache_hit_counter_.value();
  s.batch_queries = batch_counter_.value();
  s.in_flight_high_water = admission_.high_water();
  s.p50_us = static_cast<std::uint64_t>(latency_.quantile(0.50) * 1e6);
  s.p99_us = static_cast<std::uint64_t>(latency_.quantile(0.99) * 1e6);
  return s;
}

void QueryService::poller_loop(std::function<void()> poll_step) {
  while (true) {
    poll_step();
    polls_counter_.inc();
    std::unique_lock<std::mutex> lk(mutex_);
    if (stop_cv_.wait_for(lk, options_.poll_interval,
                          [this] { return stopping_; }))
      return;
  }
}

}  // namespace remos::service
