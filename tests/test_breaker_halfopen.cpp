// BreakerBoard half-open recovery edges (PR 1 hardening follow-up).
//
// The closed -> open -> half-open lifecycle has corners the original
// chaos suite never pinned down:
//   - a probe that succeeds and then the agent fails again (re-trip);
//   - two clients sharing one board racing probes at a half-open breaker;
//   - an agent crash/restart landing exactly mid-half-open.
#include <gtest/gtest.h>

#include "snmp/agent.hpp"
#include "snmp/client.hpp"
#include "snmp/fault_injector.hpp"
#include "snmp/transport.hpp"
#include "util/error.hpp"

namespace remos::snmp {
namespace {

// --- Board-level unit tests (no wire) ---

TEST(BreakerHalfOpen, ProbeSuccessThenFailuresRetrip) {
  BreakerBoard::Options o;
  o.failure_threshold = 3;
  o.cooldown = 5.0;
  BreakerBoard b(o);
  bool probe = false;

  for (int i = 0; i < 3; ++i) b.on_failure("a", 0.0);
  ASSERT_EQ(b.state("a"), BreakerBoard::State::kOpen);

  // Cooldown elapses, the probe is admitted and succeeds: fully closed.
  ASSERT_TRUE(b.admit("a", 6.0, &probe));
  EXPECT_TRUE(probe);
  b.on_success("a");
  EXPECT_EQ(b.state("a"), BreakerBoard::State::kClosed);

  // The success must have reset the consecutive-failure count: it takes
  // a full threshold of fresh failures to re-trip, not one.
  b.on_failure("a", 7.0);
  EXPECT_EQ(b.state("a"), BreakerBoard::State::kClosed);
  b.on_failure("a", 7.5);
  EXPECT_EQ(b.state("a"), BreakerBoard::State::kClosed);
  b.on_failure("a", 8.0);
  EXPECT_EQ(b.state("a"), BreakerBoard::State::kOpen);

  // And the new open window dates from the re-trip, not the first trip.
  EXPECT_FALSE(b.admit("a", 12.0, &probe));  // 8.0 + 5.0 > 12.0
  EXPECT_TRUE(b.admit("a", 13.1, &probe));
  EXPECT_TRUE(probe);
}

TEST(BreakerHalfOpen, ProbeFailureReopensWithFreshCooldown) {
  BreakerBoard::Options o;
  o.failure_threshold = 3;
  o.cooldown = 5.0;
  BreakerBoard b(o);
  bool probe = false;

  for (int i = 0; i < 3; ++i) b.on_failure("a", 0.0);
  ASSERT_TRUE(b.admit("a", 6.0, &probe));
  ASSERT_TRUE(probe);

  // One failed probe reopens immediately -- no threshold accumulation in
  // half-open -- and restarts the cooldown from the probe's failure time.
  b.on_failure("a", 6.2);
  EXPECT_EQ(b.state("a"), BreakerBoard::State::kOpen);
  EXPECT_FALSE(b.admit("a", 9.0, &probe));   // old cooldown would allow
  EXPECT_FALSE(b.admit("a", 11.0, &probe));  // 6.2 + 5.0 > 11.0
  EXPECT_TRUE(b.admit("a", 11.3, &probe));
  EXPECT_TRUE(probe);
  EXPECT_EQ(b.fast_failures(), 2u);
}

TEST(BreakerHalfOpen, FastFailuresEqualTheirSeriesWiredAndUnwired) {
  obs::MetricsRegistry registry;
  BreakerBoard::Options o;
  o.failure_threshold = 1;
  o.cooldown = 5.0;
  BreakerBoard b(o);
  bool probe = false;
  b.on_failure("a", 0.0);
  EXPECT_FALSE(b.admit("a", 1.0, &probe));
  EXPECT_FALSE(b.admit("a", 2.0, &probe));
  // Unwired, the board counts fast failures in a registry of its own.
  EXPECT_EQ(b.fast_failures(), 2u);

  // Wired, fast_failures() reads the deployment's series, which counts
  // from the wiring on.
  b.set_obs(obs::Obs{&registry, nullptr});
  EXPECT_FALSE(b.admit("a", 3.0, &probe));
  const obs::Counter series =
      registry.counter("remos_snmp_breaker_fast_fail_total");
  EXPECT_EQ(series.value(), 1u);
  EXPECT_EQ(b.fast_failures(), series.value());
}

TEST(BreakerHalfOpen, SecondCallerDuringUnresolvedProbeIsAlsoAProbe) {
  // Two clients share one board.  Client A's probe is in flight
  // (unresolved) when client B asks: B must also be treated as a probe
  // (one attempt, no retry storm) rather than fast-failed or admitted
  // as a normal exchange.
  BreakerBoard b;
  bool probe_a = false, probe_b = false;
  for (int i = 0; i < 3; ++i) b.on_failure("a", 0.0);
  ASSERT_TRUE(b.admit("a", 6.0, &probe_a));
  EXPECT_TRUE(probe_a);
  EXPECT_EQ(b.state("a"), BreakerBoard::State::kHalfOpen);
  ASSERT_TRUE(b.admit("a", 6.0, &probe_b));
  EXPECT_TRUE(probe_b);

  // Whichever probe resolves first decides for both: a failure reopens...
  b.on_failure("a", 6.1);
  EXPECT_EQ(b.state("a"), BreakerBoard::State::kOpen);
  // ...and the straggler's own failure just refreshes the open window.
  b.on_failure("a", 6.2);
  EXPECT_EQ(b.state("a"), BreakerBoard::State::kOpen);
}

// --- Wire-level integration: real Transport/Agent/Client with a manual
// clock and fault injector ---

struct Rig {
  Transport transport;
  FaultInjector fx;
  Agent agent;
  BreakerBoard board;
  Seconds clock = 0.0;

  explicit Rig(BreakerBoard::Options bo) : board(bo) {
    transport.set_clock([this] { return clock; });
    transport.set_fault_injector(&fx);
    agent.mib().add_constant(Oid({1, 3, 7}), Value::integer(42));
    agent.bind(transport, "udp://r:161");
  }

  Client client() {
    Client::Config cfg;
    cfg.max_attempts = 2;
    cfg.timeout_budget = 0.5;
    return Client(transport, "udp://r:161", "public", cfg, &board);
  }
};

TEST(BreakerHalfOpenWire, CrashTripsProbeRecoversThenRetrips) {
  BreakerBoard::Options bo;
  bo.failure_threshold = 2;
  bo.cooldown = 5.0;
  Rig rig(bo);
  Client c = rig.client();

  // Healthy exchange first.
  EXPECT_EQ(c.get(Oid({1, 3, 7})).as_integer(), 42);

  // Agent crashes: exchanges fail until the breaker opens, after which
  // they fast-fail without touching the wire.
  rig.fx.crash("udp://r:161", {1.0, 10.0});
  rig.clock = 2.0;
  EXPECT_THROW(c.get(Oid({1, 3, 7})), TimeoutError);
  EXPECT_THROW(c.get(Oid({1, 3, 7})), TimeoutError);
  EXPECT_EQ(rig.board.state("udp://r:161"), BreakerBoard::State::kOpen);
  const std::uint64_t wire_before = rig.transport.datagrams_sent();
  EXPECT_THROW(c.get(Oid({1, 3, 7})), CircuitOpenError);
  EXPECT_EQ(rig.transport.datagrams_sent(), wire_before);  // fast-failed

  // The agent restarts; after the cooldown one probe closes the breaker.
  rig.clock = 12.0;
  EXPECT_EQ(c.get(Oid({1, 3, 7})).as_integer(), 42);
  EXPECT_EQ(rig.board.state("udp://r:161"), BreakerBoard::State::kClosed);

  // Succeeds-then-fails: a fresh crash must take a full threshold of
  // failures to re-trip even though the breaker was recently open.
  rig.fx.crash("udp://r:161", {13.0, 30.0});
  rig.clock = 14.0;
  EXPECT_THROW(c.get(Oid({1, 3, 7})), TimeoutError);
  EXPECT_EQ(rig.board.state("udp://r:161"), BreakerBoard::State::kClosed);
  EXPECT_THROW(c.get(Oid({1, 3, 7})), TimeoutError);
  EXPECT_EQ(rig.board.state("udp://r:161"), BreakerBoard::State::kOpen);
}

TEST(BreakerHalfOpenWire, CrashMidHalfOpenReopensAndLaterRecovers) {
  BreakerBoard::Options bo;
  bo.failure_threshold = 2;
  bo.cooldown = 5.0;
  Rig rig(bo);
  Client c = rig.client();

  // Trip the breaker with a crash, then schedule the restart so the
  // half-open probe lands while the agent is STILL down: the probe must
  // burn exactly one attempt, reopen the breaker, and the next cooldown
  // must date from the failed probe.
  rig.fx.crash("udp://r:161", {0.0, 20.0});
  rig.clock = 1.0;
  EXPECT_THROW(c.get(Oid({1, 3, 7})), TimeoutError);
  EXPECT_THROW(c.get(Oid({1, 3, 7})), TimeoutError);
  ASSERT_EQ(rig.board.state("udp://r:161"), BreakerBoard::State::kOpen);

  rig.clock = 7.0;  // past cooldown, agent still crashed
  const std::uint64_t wire_before = rig.transport.datagrams_sent();
  EXPECT_THROW(c.get(Oid({1, 3, 7})), TimeoutError);
  // A probe spends one datagram, not a retry volley.
  EXPECT_EQ(rig.transport.datagrams_sent(), wire_before + 1);
  EXPECT_EQ(rig.board.state("udp://r:161"), BreakerBoard::State::kOpen);

  // Before the refreshed cooldown expires: fast-fail, no wire traffic.
  rig.clock = 9.0;
  EXPECT_THROW(c.get(Oid({1, 3, 7})), CircuitOpenError);

  // Agent back up, cooldown elapsed: the next probe restores service and
  // the restarted agent's re-based counters do not confuse the client.
  rig.clock = 21.0;
  EXPECT_EQ(c.get(Oid({1, 3, 7})).as_integer(), 42);
  EXPECT_EQ(rig.board.state("udp://r:161"), BreakerBoard::State::kClosed);
  EXPECT_EQ(rig.board.open_count(), 0u);
}

TEST(BreakerHalfOpenWire, TwoClientsSharingOneBoardProbeConcurrently) {
  BreakerBoard::Options bo;
  bo.failure_threshold = 2;
  bo.cooldown = 5.0;
  Rig rig(bo);
  Client a = rig.client();
  Client b = rig.client();

  rig.fx.crash("udp://r:161", {0.0, 6.0});
  rig.clock = 1.0;
  EXPECT_THROW(a.get(Oid({1, 3, 7})), TimeoutError);
  EXPECT_THROW(b.get(Oid({1, 3, 7})), TimeoutError);
  ASSERT_EQ(rig.board.state("udp://r:161"), BreakerBoard::State::kOpen);

  // While open, BOTH clients fast-fail -- the board is genuinely shared.
  EXPECT_THROW(a.get(Oid({1, 3, 7})), CircuitOpenError);
  EXPECT_THROW(b.get(Oid({1, 3, 7})), CircuitOpenError);
  EXPECT_EQ(rig.board.fast_failures(), 2u);

  // Past cooldown with the agent healthy again: client A's probe closes
  // the breaker, and client B immediately gets normal service (its own
  // exchange is a regular closed-state one, not a second probe).
  rig.clock = 7.0;
  EXPECT_EQ(a.get(Oid({1, 3, 7})).as_integer(), 42);
  EXPECT_EQ(rig.board.state("udp://r:161"), BreakerBoard::State::kClosed);
  EXPECT_EQ(b.get(Oid({1, 3, 7})).as_integer(), 42);
}

}  // namespace
}  // namespace remos::snmp
