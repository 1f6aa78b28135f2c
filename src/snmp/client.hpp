// SNMP client: typed GET/GETNEXT/walk over a Transport.
//
// This is the collector's only channel to the network -- it never touches
// simulator state directly, mirroring the paper's architecture where the
// Collector speaks SNMP to routers it does not control.
//
// Failure policy: each exchange retries under a simulated-time budget
// with exponential backoff plus deterministic jitter; garbled responses
// (undecodable datagrams, stale request-ids) count as loss and are
// retried, while definitive agent answers (error-status, noSuchObject)
// are surfaced immediately.  An optional per-agent circuit breaker
// (BreakerBoard, shared across the short-lived Client instances a
// collector creates) fast-fails exchanges to an agent that keeps timing
// out, so a dead router costs O(1) datagrams per poll cycle instead of a
// retry storm, and probes it again after a cooldown (closed -> open ->
// half-open).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "snmp/pdu.hpp"
#include "snmp/transport.hpp"
#include "util/rng.hpp"

namespace remos::snmp {

/// Pre-resolved observability handles shared by every Client a collector
/// creates (clients are short-lived; resolving per-client would hit the
/// registry mutex on every exchange batch).  All handles are optional
/// no-op sinks until resolve() is called with a live registry.
struct ClientObs {
  obs::Counter exchanges;      // exchange attempts started
  obs::Counter retries;        // per-exchange retransmissions
  obs::Counter timeouts;       // exchanges that exhausted their budget
  obs::Counter garbled;        // undecodable / mismatched responses
  obs::FlightRecorder* recorder = nullptr;

  static ClientObs resolve(const obs::Obs& o);
};

/// Per-agent circuit breakers, keyed by transport address.  One board is
/// shared by every Client a collector creates, so breaker state survives
/// the clients themselves.  Single-threaded, like the rest of the stack.
class BreakerBoard {
 public:
  using State = obs::BreakerState;  // shared vocabulary (obs/status.hpp)

  struct Options {
    /// Consecutive exchange failures that open the breaker.
    int failure_threshold = 3;
    /// Time (transport clock) an open breaker waits before allowing one
    /// half-open probe exchange.
    Seconds cooldown = 5.0;
  };

  BreakerBoard() : BreakerBoard(Options{}) {}
  explicit BreakerBoard(Options options);

  /// kClosed for addresses never seen.
  State state(const std::string& address) const;

  /// May this exchange proceed?  Sets *probe when it is a half-open
  /// probe (callers should spend at most one attempt on probes).
  bool admit(const std::string& address, Seconds now, bool* probe);

  void on_success(const std::string& address);
  void on_failure(const std::string& address, Seconds now);

  /// Exchanges rejected without touching the wire: reads
  /// remos_snmp_breaker_fast_fail_total.
  std::uint64_t fast_failures() const { return fast_fail_counter_.value(); }
  /// Addresses whose breaker is currently open.
  std::size_t open_count() const;

  /// Wires metrics (open-breaker gauge, fast-fail counter) and recorder
  /// events (every state transition) into this board.  Until then
  /// fast_failures() counts in a registry the board owns.
  void set_obs(const obs::Obs& o);

 private:
  void note_transition(const std::string& address, State from, State to,
                       Seconds now);

  struct Entry {
    State state = State::kClosed;
    int consecutive_failures = 0;
    Seconds opened_at = 0;
  };

  Options options_;
  std::map<std::string, Entry> entries_;
  obs::MetricsRegistry own_metrics_;  // the counter's home until wired
  obs::Counter fast_fail_counter_;
  obs::Gauge open_gauge_;
  obs::FlightRecorder* recorder_ = nullptr;
};

class Client {
 public:
  struct Config {
    /// Attempts per exchange (1 try + retries); half-open probes use 1.
    int max_attempts = 4;
    /// Simulated-time budget per exchange: attempts stop once their
    /// cumulative latency (RTTs + backoff waits) would exceed it.
    Seconds timeout_budget = 0.5;
    /// First retry backoff; doubles (backoff_factor) per retry.
    Seconds base_backoff = 0.01;
    double backoff_factor = 2.0;
    /// Uniform jitter fraction added to each backoff wait.
    double jitter = 0.25;
    /// GETNEXT steps walk() tolerates before declaring the agent's MIB
    /// faulty (a looping agent must not hang the collector).
    std::size_t max_walk_steps = 4096;
  };

  Client(Transport& transport, std::string agent_address,
         std::string community, Config config,
         BreakerBoard* breakers = nullptr,
         const ClientObs* client_obs = nullptr);
  Client(Transport& transport, std::string agent_address,
         std::string community = "public")
      : Client(transport, std::move(agent_address), std::move(community),
               Config{}, nullptr) {}

  /// GET of a single object; throws TimeoutError if the agent never
  /// answers (CircuitOpenError when fast-failed by the breaker),
  /// ProtocolError on a broken response, NotFoundError if the agent
  /// reports noSuchObject.
  Value get(const Oid& oid);

  /// GET of several objects in one PDU (one round-trip).
  std::vector<VarBind> get_many(const std::vector<Oid>& oids);

  /// Raw GETNEXT step.
  VarBind get_next(const Oid& oid);

  /// Walks the subtree under `prefix` via repeated GETNEXT.  Throws
  /// ProtocolError if the agent fails to advance or the walk exceeds
  /// Config::max_walk_steps.
  std::vector<VarBind> walk(const Oid& prefix);

  const std::string& address() const { return address_; }

 private:
  Pdu exchange(Pdu request);

  Transport* transport_;
  std::string address_;
  std::string community_;
  Config config_;
  BreakerBoard* breakers_;
  const ClientObs* obs_;  // nullable; handles inside are no-op when unset
  Rng jitter_rng_;
  std::int32_t next_request_id_ = 1;
};

}  // namespace remos::snmp
