#include "collector/snmp_collector.hpp"

#include <algorithm>
#include <chrono>
#include <deque>

#include "snmp/mib2.hpp"
#include "util/error.hpp"

namespace remos::collector {

namespace {
using snmp::Oid;
using snmp::oids::kIfTableEntry;
using snmp::oids::kRemosNeighborEntry;

constexpr double kCounterModulus = 4294967296.0;  // 2^32

/// Counter32 difference that survives one wrap.
std::uint32_t counter_delta(std::uint32_t now, std::uint32_t before) {
  return now - before;  // unsigned arithmetic wraps correctly
}

obs::Counter implausible_deltas_in(obs::MetricsRegistry& metrics) {
  return metrics.counter("remos_collector_implausible_deltas_total", {},
                         "Counter samples discarded as implausible");
}
}  // namespace

SnmpCollector::SnmpCollector(snmp::Transport& transport,
                             std::vector<std::string> seed_routers,
                             Options options)
    : transport_(&transport),
      seeds_(std::move(seed_routers)),
      options_(std::move(options)),
      breakers_(options_.breaker),
      implausible_counter_(implausible_deltas_in(own_metrics_)) {
  if (seeds_.empty())
    throw InvalidArgument("SnmpCollector: no seed routers");
  if (options_.unreachable_after < 1)
    throw InvalidArgument("SnmpCollector: unreachable_after < 1");
  if (options_.delta_margin < 1.0)
    throw InvalidArgument("SnmpCollector: delta_margin < 1");
}

snmp::Client SnmpCollector::make_client(const std::string& node) {
  return snmp::Client(*transport_, snmp::agent_address(node),
                      options_.community, options_.client, &breakers_,
                      &client_obs_);
}

void SnmpCollector::set_obs(const obs::Obs& o) {
  obs_ = o;
  client_obs_ = snmp::ClientObs::resolve(o);
  breakers_.set_obs(o);
  if (o.metrics) {
    polls_counter_ = o.metrics->counter("remos_collector_polls_total", {},
                                        "Collector poll rounds completed");
    partial_polls_counter_ = o.metrics->counter(
        "remos_collector_partial_polls_total", {},
        "Polls that lost some interfaces but kept the rest");
    poll_failures_counter_ = o.metrics->counter(
        "remos_collector_poll_failures_total", {},
        "Per-router polls that failed outright");
    implausible_counter_ = implausible_deltas_in(*o.metrics);
    poll_duration_ = o.metrics->histogram(
        "remos_collector_poll_duration_seconds",
        obs::default_time_buckets(), {},
        "Wall-clock duration of one poll round");
    unreachable_gauge_ =
        o.metrics->gauge("remos_collector_unreachable_agents", {},
                         "Agents that failed during the last operation");
    staleness_gauge_ = o.metrics->gauge(
        "remos_collector_staleness_seconds", {},
        "Model-clock age of the freshest link confirmation");
    // Health gauges for routers already known (newly met routers are
    // added lazily by set_health).
    for (const auto& [router, st] : router_state_)
      health_gauge(router).set(static_cast<double>(st.health));
  }
}

obs::Gauge& SnmpCollector::health_gauge(const std::string& router) {
  auto it = health_gauges_.find(router);
  if (it == health_gauges_.end()) {
    obs::Gauge g;
    if (obs_.metrics)
      g = obs_.metrics->gauge(
          "remos_collector_router_health", {{"router", router}},
          "Per-router agent health (0 healthy, 1 degraded, 2 unreachable)");
    it = health_gauges_.emplace(router, g).first;
  }
  return it->second;
}

Seconds SnmpCollector::sample_time(std::uint32_t uptime_ticks) const {
  if (transport_->has_clock()) return transport_->now();
  return static_cast<double>(uptime_ticks) / 100.0;
}

AgentHealth SnmpCollector::health(const std::string& router) const {
  const auto it = router_state_.find(router);
  return it == router_state_.end() ? AgentHealth::kHealthy
                                   : it->second.health;
}

bool SnmpCollector::healthy() const {
  if (!pending_routers_.empty()) return false;
  for (const auto& [router, st] : router_state_)
    if (st.health == AgentHealth::kUnreachable) return false;
  return true;
}

void SnmpCollector::set_health(const std::string& router, AgentHealth to) {
  RouterState& st = router_state_[router];
  if (st.health == to) return;
  health_log_.push_back(
      HealthTransition{transport_->now(), router, st.health, to});
  if (obs_.recorder)
    obs_.recorder->record(to == AgentHealth::kHealthy
                              ? obs::EventSeverity::kInfo
                              : obs::EventSeverity::kWarn,
                          "collector", "health_transition",
                          router + ": " + obs::to_string(st.health) +
                              " -> " + obs::to_string(to),
                          transport_->now());
  st.health = to;
  health_gauge(router).set(static_cast<double>(to));
}

void SnmpCollector::note_poll_result(const std::string& router,
                                     std::size_t attempted,
                                     std::size_t failed) {
  if (attempted > 0 && failed == attempted) {
    note_poll_failure(router);
    return;
  }
  RouterState& st = router_state_[router];
  st.consecutive_failures = 0;  // the agent answered something
  st.last_success = transport_->now();
  if (failed > 0) partial_polls_counter_.inc();
  set_health(router, failed == 0 ? AgentHealth::kHealthy
                                 : AgentHealth::kDegraded);
}

void SnmpCollector::note_poll_failure(const std::string& router) {
  RouterState& st = router_state_[router];
  ++st.consecutive_failures;
  poll_failures_counter_.inc();
  set_health(router,
             st.consecutive_failures >= options_.unreachable_after
                 ? AgentHealth::kUnreachable
                 : AgentHealth::kDegraded);
}

void SnmpCollector::discover() {
  unreachable_ = 0;
  std::deque<std::string> frontier(seeds_.begin(), seeds_.end());
  std::set<std::string> visited;
  while (!frontier.empty()) {
    const std::string router = frontier.front();
    frontier.pop_front();
    if (!visited.insert(router).second) continue;
    // A lossy transport can kill one exchange in a long table walk even
    // with per-datagram retries; retry the whole router a few times
    // before declaring it unreachable (it stays pending and is retried
    // again on every poll).
    bool reached = false;
    for (int attempt = 0; attempt < 3 && !reached; ++attempt) {
      try {
        for (const std::string& peer : ingest_router(router))
          if (!visited.contains(peer)) frontier.push_back(peer);
        known_routers_.insert(router);
        pending_routers_.erase(router);
        reached = true;
      } catch (const NotFoundError&) {
        break;  // no agent at that address: retrying cannot help now
      } catch (const TimeoutError&) {
      } catch (const ProtocolError&) {
        // Garbled tables (corruption in flight): retry like a timeout.
      }
    }
    if (!reached) {
      ++unreachable_;
      pending_routers_.insert(router);
    }
  }
  if (known_routers_.empty())
    throw Error("SnmpCollector: discovery reached no routers");
}

std::vector<std::string> SnmpCollector::ingest_router(
    const std::string& name) {
  snmp::Client client = make_client(name);
  const std::string sys_name = client.get(snmp::oids::kSysName).as_octets();
  ModelNode& self = model_.upsert_node(sys_name, /*is_router=*/true);
  try {
    self.internal_bw =
        static_cast<double>(
            client.get(snmp::oids::kRemosBackplaneKbps).as_gauge32()) *
        1e3;
  } catch (const NotFoundError&) {
    // No finite backplane reported: only links constrain traffic.
  }

  // Column-indexed walk results: ifIndex -> value.
  auto column = [&](const Oid& entry, std::uint32_t col) {
    std::map<std::uint32_t, snmp::Value> out;
    for (const snmp::VarBind& vb : client.walk(entry.child(col)))
      out.emplace(vb.oid[vb.oid.size() - 1], vb.value);
    return out;
  };

  const auto speeds = column(kIfTableEntry, snmp::oids::kIfSpeedCol);
  const auto nbr_names =
      column(kRemosNeighborEntry, snmp::oids::kNbrNameCol);
  const auto nbr_router =
      column(kRemosNeighborEntry, snmp::oids::kNbrIsRouterCol);
  const auto nbr_latency =
      column(kRemosNeighborEntry, snmp::oids::kNbrLatencyMicrosCol);
  const auto nbr_sharing =
      column(kRemosNeighborEntry, snmp::oids::kNbrSharingCol);

  std::vector<std::string> peer_routers;
  for (const auto& [if_index, name_value] : nbr_names) {
    const std::string peer = name_value.as_octets();
    const bool peer_is_router = nbr_router.at(if_index).as_integer() != 0;
    const auto speed_it = speeds.find(if_index);
    if (speed_it == speeds.end())
      throw ProtocolError("SnmpCollector: neighbor without ifSpeed");
    const auto capacity =
        static_cast<BitsPerSec>(speed_it->second.as_gauge32());
    const Seconds latency =
        static_cast<double>(nbr_latency.at(if_index).as_gauge32()) * 1e-6;

    model_.upsert_node(peer, peer_is_router);
    ModelLink& link = model_.upsert_link(sys_name, peer, capacity, latency);
    if (const auto it = nbr_sharing.find(if_index);
        it != nbr_sharing.end()) {
      const std::int64_t raw = it->second.as_integer();
      if (raw >= 0 && raw <= 2)
        link.sharing = static_cast<SharingPolicy>(raw);
    }
    link.last_update = transport_->now();
    if_neighbor_[{sys_name, if_index}] = peer;
    if (peer_is_router) peer_routers.push_back(peer);

    if (!peer_is_router && options_.query_hosts &&
        transport_->bound(snmp::agent_address(peer))) {
      snmp::Client host = make_client(peer);
      try {
        ModelNode& hn = model_.node(peer);
        hn.cpu_load =
            static_cast<double>(
                host.get(snmp::oids::kHrProcessorLoad).as_integer()) /
            100.0;
        hn.memory_mb = host.get(snmp::oids::kHrMemorySize).as_gauge32();
        hn.has_host_info = true;
        known_hosts_.insert(peer);
      } catch (const TimeoutError&) {
        ++unreachable_;
      } catch (const NotFoundError&) {
        // Host agent lacks the host group: fine, info stays unknown.
      }
    }
  }
  return peer_routers;
}

void SnmpCollector::poll() {
  const auto poll_start = std::chrono::steady_clock::now();
  unreachable_ = 0;
  // Second-chance discovery for routers that were unreachable earlier.
  for (auto it = pending_routers_.begin(); it != pending_routers_.end();) {
    try {
      ingest_router(*it);
      known_routers_.insert(*it);
      it = pending_routers_.erase(it);
    } catch (const Error&) {
      ++unreachable_;
      ++it;
    }
  }
  for (const std::string& router : known_routers_) {
    try {
      const auto [attempted, failed] = poll_router(router);
      note_poll_result(router, attempted, failed);
      if (failed > 0) ++unreachable_;
    } catch (const Error&) {
      // Missed poll: prior history stays in place, queries widen their
      // accuracy with staleness instead of failing.
      ++unreachable_;
      note_poll_failure(router);
    }
  }
  // Host CPU load is as dynamic as link usage: refresh it every round.
  for (const std::string& host : known_hosts_) {
    try {
      poll_host(host);
    } catch (const Error&) {
      ++unreachable_;
    }
  }
  polls_counter_.inc();
  poll_duration_.observe(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - poll_start)
                             .count());
  unreachable_gauge_.set(static_cast<double>(unreachable_));
  const Seconds freshest = freshest_sample();
  if (freshest > -1e18)
    staleness_gauge_.set(std::max(0.0, transport_->now() - freshest));
}

void SnmpCollector::poll_host(const std::string& name) {
  snmp::Client client = make_client(name);
  ModelNode& hn = model_.node(name);
  hn.cpu_load = static_cast<double>(
                    client.get(snmp::oids::kHrProcessorLoad).as_integer()) /
                100.0;
}

std::pair<std::size_t, std::size_t> SnmpCollector::poll_router(
    const std::string& name) {
  snmp::Client client = make_client(name);
  // If this GET fails the whole router is unreachable this round; the
  // per-interface GETs below fail individually (partial poll).
  const std::uint32_t uptime =
      client.get(snmp::oids::kSysUpTime).as_time_ticks();
  const Seconds stamp = sample_time(uptime);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const auto& [key, neighbor] : if_neighbor_) {
    if (key.first != name) continue;
    ++attempted;
    const std::uint32_t if_index = key.second;
    const auto in_oid =
        kIfTableEntry.descend({snmp::oids::kIfInOctetsCol, if_index});
    const auto out_oid =
        kIfTableEntry.descend({snmp::oids::kIfOutOctetsCol, if_index});
    const auto oper_oid =
        kIfTableEntry.descend({snmp::oids::kIfOperStatusCol, if_index});
    std::vector<snmp::VarBind> values;
    try {
      values = client.get_many({in_oid, out_oid, oper_oid});
    } catch (const TimeoutError&) {
      ++failed;  // this interface keeps its old counters and history
      continue;
    } catch (const ProtocolError&) {
      ++failed;
      continue;
    }
    const std::uint32_t in_now = values[0].value.as_counter32();
    const std::uint32_t out_now = values[1].value.as_counter32();
    const bool oper_up = values[2].value.as_integer() == 1;
    bool flipped = false;
    ModelLink* link = model_.find_link(name, neighbor, &flipped);
    if (link) {
      model_.set_link_up(*link, oper_up);
      link->last_update = stamp;
    }

    CounterState& prev = counters_[key];
    if (prev.valid && uptime < prev.uptime_ticks) {
      // Uptime went backwards: the agent restarted and its counters were
      // zeroed.  The delta against pre-restart values is meaningless, so
      // re-arm the baseline and take no sample this round.
      implausible_counter_.inc();
    } else if (prev.valid && uptime != prev.uptime_ticks) {
      const double dt =
          static_cast<double>(counter_delta(uptime, prev.uptime_ticks)) /
          100.0;
      const double in_bytes = counter_delta(in_now, prev.in_octets);
      const double out_bytes = counter_delta(out_now, prev.out_octets);
      // A polling gap longer than one wrap period is not recoverable from
      // 32-bit counters; guard against absurd rates instead of recording
      // garbage.
      const BitsPerSec in_rate = in_bytes * 8.0 / dt;
      const BitsPerSec out_rate = out_bytes * 8.0 / dt;
      // Plausibility ceiling: an interface cannot carry more than its
      // speed (margin covers rounding).  Deltas beyond it mean the
      // counter was reset or rewritten between polls, not real traffic.
      const BitsPerSec ceiling =
          link && link->capacity > 0
              ? link->capacity * options_.delta_margin
              : kCounterModulus * 8.0;  // unknown speed: wrap guard only
      if (link && in_bytes < kCounterModulus &&
          out_bytes < kCounterModulus && in_rate <= ceiling &&
          out_rate <= ceiling) {
        // Router's out direction = router -> neighbor traffic.
        Sample s;
        s.at = stamp;
        const bool router_is_a = !flipped;
        s.used_ab = router_is_a ? out_rate : in_rate;
        s.used_ba = router_is_a ? in_rate : out_rate;
        link->history.record(s);
        // Measured-utilization history series, named to line up with the
        // simulator's ground-truth "sim.link.<a>~<b>.<ab|ba>" series.
        if (obs_.series && link->capacity > 0) {
          const std::string base =
              "collector.link." + link->a + "~" + link->b;
          obs_.series->series(base + ".ab")
              .append(stamp, s.used_ab / link->capacity);
          obs_.series->series(base + ".ba")
              .append(stamp, s.used_ba / link->capacity);
        }
      } else {
        implausible_counter_.inc();
      }
    }
    prev.in_octets = in_now;
    prev.out_octets = out_now;
    prev.uptime_ticks = uptime;
    prev.valid = true;
  }
  return {attempted, failed};
}

}  // namespace remos::collector
