// SNMP-based collector (the paper's primary Collector).
//
// Discovery: starting from seed router addresses, walks each agent's
// system group, ifTable and Remos neighbor table, inserting nodes and
// links; newly met routers are visited transitively (breadth-first), so a
// single seed suffices on a connected management domain.  Hosts found in
// neighbor tables are recorded but not required to run agents; if a host
// agent answers, its CPU/memory group is read too.
//
// Polling: reads sysUpTime and ifIn/ifOutOctets from every known router,
// differences the Counter32 values against the previous poll (modulo 2^32,
// surviving counter wrap), and records per-direction utilization samples
// into the model's link histories.  Rates are computed against the agent's
// own uptime clock, so collector-side scheduling jitter does not corrupt
// the estimates.
//
// Degradation: poll() never throws.  Each router carries a health state
// machine (healthy -> degraded -> unreachable, recovering on the first
// clean poll); a poll that loses some interfaces keeps the rest (partial
// poll), and a poll that fails outright leaves prior history in place --
// queries then answer from stale data with widened accuracy instead of
// erroring (paper §4.4).  Counter deltas that imply rates beyond the
// interface's plausible ceiling (agent reboot, counter reset, replayed
// values) are discarded and the baseline re-armed.  A shared per-agent
// circuit breaker caps the datagram cost of a dead router at O(1) per
// poll cycle.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "collector/collector.hpp"
#include "obs/obs.hpp"
#include "snmp/client.hpp"
#include "snmp/transport.hpp"

namespace remos::collector {

/// Per-router agent health as seen by the collector (shared vocabulary;
/// see obs/status.hpp).
using AgentHealth = obs::AgentHealth;

inline const char* to_string(AgentHealth h) { return obs::to_string(h); }

/// One edge of a router's health state machine, for audit and display.
struct HealthTransition {
  Seconds at = 0;  // transport clock
  std::string router;
  AgentHealth from = AgentHealth::kHealthy;
  AgentHealth to = AgentHealth::kHealthy;
};

class SnmpCollector : public Collector {
 public:
  struct Options {
    std::string community = "public";
    /// Also query host agents met during discovery (CPU/memory info).
    bool query_hosts = true;
    /// Per-exchange retry/timeout policy for every client this collector
    /// creates.
    snmp::Client::Config client;
    /// Circuit-breaker policy shared by all of this collector's clients.
    snmp::BreakerBoard::Options breaker;
    /// Consecutive fully-failed polls before a router is declared
    /// unreachable (one failed poll only degrades it).
    int unreachable_after = 3;
    /// Counter deltas implying a rate above capacity * delta_margin are
    /// discarded as counter glitches (reset, reboot, replay) instead of
    /// being recorded as absurd utilization samples.
    double delta_margin = 1.5;
  };

  /// `seed_routers` are node names (addresses derive via agent_address).
  SnmpCollector(snmp::Transport& transport,
                std::vector<std::string> seed_routers, Options options);
  SnmpCollector(snmp::Transport& transport,
                std::vector<std::string> seed_routers)
      : SnmpCollector(transport, std::move(seed_routers), Options{}) {}

  void discover() override;
  void poll() override;
  bool healthy() const override;

  /// Number of agents that failed to answer during the last operation.
  std::size_t unreachable_agents() const { return unreachable_; }

  /// Current health of one router (healthy if never polled).
  AgentHealth health(const std::string& router) const;

  /// Every health transition observed so far, in order.
  const std::vector<HealthTransition>& health_log() const {
    return health_log_;
  }

  /// The shared circuit-breaker state (for audit in tests/examples).
  const snmp::BreakerBoard& breakers() const { return breakers_; }

  /// Counter samples discarded as implausible: reads
  /// remos_collector_implausible_deltas_total.
  std::uint64_t implausible_deltas() const {
    return implausible_counter_.value();
  }

  /// Wires metrics and flight-recorder events into this collector, its
  /// breaker board and every SNMP client it creates: poll duration and
  /// partial-poll counters, a per-router health gauge, model staleness,
  /// and health-transition events.  Call before polling starts.  Until
  /// then implausible_deltas() counts in a registry the collector owns.
  void set_obs(const obs::Obs& o);

 private:
  struct CounterState {
    std::uint32_t in_octets = 0;
    std::uint32_t out_octets = 0;
    std::uint32_t uptime_ticks = 0;
    bool valid = false;
  };

  struct RouterState {
    AgentHealth health = AgentHealth::kHealthy;
    int consecutive_failures = 0;
    Seconds last_success = -1;
  };

  snmp::Client make_client(const std::string& node);
  /// Lazily-resolved per-router health gauge (no-op without a registry).
  obs::Gauge& health_gauge(const std::string& router);
  /// Collector-side timestamp for samples taken with agent uptime
  /// `uptime_ticks`: the transport clock when one is wired (immune to
  /// agent reboots), else the agent's own uptime.
  Seconds sample_time(std::uint32_t uptime_ticks) const;
  void set_health(const std::string& router, AgentHealth to);
  void note_poll_result(const std::string& router, std::size_t attempted,
                        std::size_t failed);
  void note_poll_failure(const std::string& router);

  /// Reads one router's tables into the model; returns neighbor routers.
  std::vector<std::string> ingest_router(const std::string& name);
  /// Polls one router's interfaces; per-interface failures are tolerated
  /// (partial poll).  Returns {attempted, failed} interface counts;
  /// throws only when the router answers nothing at all.
  std::pair<std::size_t, std::size_t> poll_router(const std::string& name);

  void poll_host(const std::string& name);

  snmp::Transport* transport_;
  std::vector<std::string> seeds_;
  Options options_;
  snmp::BreakerBoard breakers_;
  std::set<std::string> known_routers_;
  std::set<std::string> pending_routers_;  // unreachable so far; retried
  std::set<std::string> known_hosts_;      // hosts with responding agents
  // (router, ifIndex) -> previous counters.
  std::map<std::pair<std::string, std::uint32_t>, CounterState> counters_;
  // (router, ifIndex) -> neighbor name (fixed at discovery).
  std::map<std::pair<std::string, std::uint32_t>, std::string> if_neighbor_;
  std::map<std::string, RouterState> router_state_;
  std::vector<HealthTransition> health_log_;
  std::size_t unreachable_ = 0;

  obs::MetricsRegistry own_metrics_;  // the counter's home until wired
  obs::Counter implausible_counter_;

  // Observability (no-op sinks until set_obs).
  obs::Obs obs_;
  snmp::ClientObs client_obs_;
  obs::Counter polls_counter_;
  obs::Counter partial_polls_counter_;
  obs::Counter poll_failures_counter_;
  obs::Histogram poll_duration_;
  obs::Gauge unreachable_gauge_;
  obs::Gauge staleness_gauge_;
  std::map<std::string, obs::Gauge> health_gauges_;
};

}  // namespace remos::collector
