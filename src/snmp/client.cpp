#include "snmp/client.hpp"

#include <optional>

#include "snmp/codec.hpp"
#include "util/error.hpp"

namespace remos::snmp {

namespace {

/// FNV-1a, so each client's jitter stream is a deterministic function of
/// its agent address (reproducible chaos runs, no shared-RNG coupling).
std::uint64_t address_seed(const std::string& address) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : address) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

obs::Counter fast_failures_in(obs::MetricsRegistry& metrics) {
  return metrics.counter("remos_snmp_breaker_fast_fail_total", {},
                         "Exchanges rejected by an open breaker");
}

}  // namespace

ClientObs ClientObs::resolve(const obs::Obs& o) {
  ClientObs c;
  if (o.metrics) {
    c.exchanges = o.metrics->counter("remos_snmp_exchanges_total", {},
                                     "SNMP exchange attempts started");
    c.retries = o.metrics->counter("remos_snmp_retries_total", {},
                                   "SNMP per-exchange retransmissions");
    c.timeouts = o.metrics->counter(
        "remos_snmp_timeouts_total", {},
        "SNMP exchanges that exhausted their retry budget");
    c.garbled = o.metrics->counter(
        "remos_snmp_garbled_total", {},
        "Undecodable or request-id-mismatched SNMP responses");
  }
  c.recorder = o.recorder;
  return c;
}

BreakerBoard::BreakerBoard(Options options)
    : options_(options), fast_fail_counter_(fast_failures_in(own_metrics_)) {
  if (options_.failure_threshold < 1)
    throw InvalidArgument("BreakerBoard: failure_threshold < 1");
  if (options_.cooldown < 0)
    throw InvalidArgument("BreakerBoard: negative cooldown");
}

BreakerBoard::State BreakerBoard::state(const std::string& address) const {
  const auto it = entries_.find(address);
  return it == entries_.end() ? State::kClosed : it->second.state;
}

void BreakerBoard::set_obs(const obs::Obs& o) {
  if (o.metrics) {
    open_gauge_ = o.metrics->gauge("remos_snmp_breakers_open", {},
                                   "Agent circuit breakers currently open");
    fast_fail_counter_ = fast_failures_in(*o.metrics);
  }
  recorder_ = o.recorder;
}

void BreakerBoard::note_transition(const std::string& address, State from,
                                   State to, Seconds now) {
  if (from == to) return;
  if (recorder_)
    recorder_->record(to == State::kOpen ? obs::EventSeverity::kWarn
                                         : obs::EventSeverity::kInfo,
                      "snmp", "breaker_transition",
                      address + ": " + obs::to_string(from) + " -> " +
                          obs::to_string(to),
                      now);
  open_gauge_.set(static_cast<double>(open_count()));
}

bool BreakerBoard::admit(const std::string& address, Seconds now,
                         bool* probe) {
  *probe = false;
  Entry& e = entries_[address];
  switch (e.state) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now - e.opened_at < options_.cooldown) {
        fast_fail_counter_.inc();
        return false;
      }
      e.state = State::kHalfOpen;
      note_transition(address, State::kOpen, State::kHalfOpen, now);
      *probe = true;
      return true;
    case State::kHalfOpen:
      // An unresolved probe (caller aborted mid-exchange); allow another.
      *probe = true;
      return true;
  }
  return true;
}

void BreakerBoard::on_success(const std::string& address) {
  Entry& e = entries_[address];
  const State from = e.state;
  e.state = State::kClosed;
  e.consecutive_failures = 0;
  note_transition(address, from, State::kClosed, -1);
}

void BreakerBoard::on_failure(const std::string& address, Seconds now) {
  Entry& e = entries_[address];
  const State from = e.state;
  ++e.consecutive_failures;
  if (e.state == State::kHalfOpen ||
      e.consecutive_failures >= options_.failure_threshold) {
    e.state = State::kOpen;
    e.opened_at = now;
  }
  note_transition(address, from, e.state, now);
}

std::size_t BreakerBoard::open_count() const {
  std::size_t n = 0;
  for (const auto& [address, e] : entries_)
    if (e.state == State::kOpen) ++n;
  return n;
}

Client::Client(Transport& transport, std::string agent_address,
               std::string community, Config config, BreakerBoard* breakers,
               const ClientObs* client_obs)
    : transport_(&transport),
      address_(std::move(agent_address)),
      community_(std::move(community)),
      config_(config),
      breakers_(breakers),
      obs_(client_obs),
      jitter_rng_(address_seed(address_)) {
  if (config_.max_attempts < 1)
    throw InvalidArgument("Client: max_attempts < 1");
  if (config_.timeout_budget <= 0)
    throw InvalidArgument("Client: timeout_budget <= 0");
}

Pdu Client::exchange(Pdu request) {
  request.community = community_;
  request.request_id = next_request_id_++;

  bool probe = false;
  if (breakers_ && !breakers_->admit(address_, transport_->now(), &probe))
    throw CircuitOpenError("SNMP: circuit open for " + address_);

  if (obs_) obs_->exchanges.inc();
  const auto wire = encode(request);
  const int attempts = probe ? 1 : config_.max_attempts;
  Seconds spent = 0;
  Seconds backoff = config_.base_backoff;
  std::optional<ProtocolError> garbled;  // most recent undecodable answer

  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      if (obs_) obs_->retries.inc();
      // Exponential backoff with jitter, charged against the budget.
      const Seconds wait =
          backoff * (1.0 + config_.jitter * jitter_rng_.uniform());
      if (spent + wait >= config_.timeout_budget) break;
      spent += wait;
      backoff *= config_.backoff_factor;
    }
    Transport::Attempt result;
    try {
      result = transport_->attempt(address_, wire);
    } catch (const NotFoundError&) {
      // Nothing bound there (agent process gone): resolves the exchange.
      if (breakers_) breakers_->on_failure(address_, transport_->now());
      throw;
    }
    spent += result.latency;
    if (!result.response) {
      if (spent >= config_.timeout_budget) break;
      continue;
    }
    Pdu response;
    try {
      response = decode(*result.response);
    } catch (const ProtocolError& e) {
      garbled = e;  // corrupt datagram: as good as lost, retry
      if (obs_) obs_->garbled.inc();
      continue;
    }
    if (response.type != PduType::kResponse) {
      garbled = ProtocolError("SNMP: non-response PDU from " + address_);
      if (obs_) obs_->garbled.inc();
      continue;
    }
    if (response.request_id != request.request_id) {
      garbled =
          ProtocolError("SNMP: request-id mismatch from " + address_);
      if (obs_) obs_->garbled.inc();
      continue;
    }
    // A decoded, matching response is a definitive answer: the agent is
    // alive even when it reports an error status.
    if (breakers_) breakers_->on_success(address_);
    if (response.error_status != ErrorStatus::kNoError)
      throw ProtocolError("SNMP: agent error status " +
                          std::to_string(static_cast<int>(
                              response.error_status)) +
                          " from " + address_);
    return response;
  }

  if (breakers_) breakers_->on_failure(address_, transport_->now());
  if (garbled) throw *garbled;
  if (obs_) obs_->timeouts.inc();
  throw TimeoutError("SNMP: no response from " + address_ + " within " +
                     std::to_string(config_.timeout_budget) + "s budget");
}

Value Client::get(const Oid& oid) {
  Pdu request;
  request.type = PduType::kGet;
  request.bindings.push_back(VarBind{oid, Value::null()});
  const Pdu response = exchange(std::move(request));
  if (response.bindings.size() != 1)
    throw ProtocolError("SNMP: wrong varbind count in GET response");
  const Value& v = response.bindings[0].value;
  if (v.type() == ValueType::kNoSuchObject)
    throw NotFoundError("SNMP: " + oid.to_string() + " not in " + address_);
  return v;
}

std::vector<VarBind> Client::get_many(const std::vector<Oid>& oids) {
  Pdu request;
  request.type = PduType::kGet;
  for (const Oid& oid : oids)
    request.bindings.push_back(VarBind{oid, Value::null()});
  Pdu response = exchange(std::move(request));
  if (response.bindings.size() != oids.size())
    throw ProtocolError("SNMP: wrong varbind count in GET response");
  return std::move(response.bindings);
}

VarBind Client::get_next(const Oid& oid) {
  Pdu request;
  request.type = PduType::kGetNext;
  request.bindings.push_back(VarBind{oid, Value::null()});
  Pdu response = exchange(std::move(request));
  if (response.bindings.size() != 1)
    throw ProtocolError("SNMP: wrong varbind count in GETNEXT response");
  return std::move(response.bindings[0]);
}

std::vector<VarBind> Client::walk(const Oid& prefix) {
  std::vector<VarBind> out;
  Oid cursor = prefix;
  for (std::size_t steps = 0;; ++steps) {
    if (steps >= config_.max_walk_steps)
      throw ProtocolError("SNMP: walk exceeded " +
                          std::to_string(config_.max_walk_steps) +
                          " steps under " + prefix.to_string() +
                          " (looping agent?)");
    VarBind vb = get_next(cursor);
    if (vb.value.type() == ValueType::kEndOfMibView) break;
    if (!vb.oid.starts_with(prefix)) break;  // left the subtree
    if (!out.empty() && vb.oid <= out.back().oid)
      throw ProtocolError("SNMP: walk did not advance (agent bug?)");
    cursor = vb.oid;
    out.push_back(std::move(vb));
  }
  return out;
}

}  // namespace remos::snmp
