#include "collector/collector_set.hpp"

#include <algorithm>
#include <chrono>

#include "util/error.hpp"

namespace remos::collector {

namespace {

obs::Counter poll_errors_in(obs::MetricsRegistry& metrics) {
  return metrics.counter("remos_collectorset_poll_errors_total", {},
                         "Collectors skipped in a round because poll() threw");
}

}  // namespace

CollectorSet::CollectorSet()
    : poll_errors_counter_(poll_errors_in(own_metrics_)) {}

void CollectorSet::set_obs(const obs::Obs& o) {
  if (o.metrics) {
    rounds_counter_ =
        o.metrics->counter("remos_collectorset_poll_rounds_total", {},
                           "Cooperating-collector poll rounds completed");
    poll_errors_counter_ = poll_errors_in(*o.metrics);
    merge_duration_ = o.metrics->histogram(
        "remos_collectorset_merge_duration_seconds",
        obs::default_time_buckets(), {},
        "Wall-clock duration of one merged-view rebuild");
  }
  recorder_ = o.recorder;
}

void CollectorSet::add(Collector& collector) {
  for (const Collector* c : collectors_)
    if (c == &collector)
      throw InvalidArgument("CollectorSet: collector already added");
  collectors_.push_back(&collector);
}

void CollectorSet::discover_all() {
  for (Collector* c : collectors_) c->discover();
}

void CollectorSet::poll_all() {
  for (Collector* c : collectors_) {
    try {
      c->poll();
    } catch (const Error& e) {
      // A degraded collector keeps its prior model; the merged view
      // simply prefers its healthier peers until it recovers.
      poll_errors_counter_.inc();
      if (recorder_)
        recorder_->record(obs::EventSeverity::kWarn, "collector",
                          "poll_skipped", e.what());
    }
  }
  rounds_counter_.inc();
  if (publish_hook_) {
    const auto t0 = std::chrono::steady_clock::now();
    NetworkModel view = merged();
    merge_duration_.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    publish_hook_(std::move(view));
  }
}

NetworkModel CollectorSet::merged() const {
  // merge_from lets the later model win scalar state (link up/down, host
  // load), so merge in ascending preference: unhealthy before healthy,
  // stale before fresh, registration order breaking ties.
  std::vector<const Collector*> order(collectors_.begin(),
                                      collectors_.end());
  std::stable_sort(order.begin(), order.end(),
                   [](const Collector* x, const Collector* y) {
                     if (x->healthy() != y->healthy()) return y->healthy();
                     return x->freshest_sample() < y->freshest_sample();
                   });
  NetworkModel out;
  for (const Collector* c : order) out.merge_from(c->model());
  return out;
}

}  // namespace remos::collector
