#include "service/replication.hpp"

#include <utility>

#include "util/error.hpp"

namespace remos::service {

// ---------------------------------------------------------------------------
// ChannelFaultInjector

ChannelFaultInjector::ChannelFaultInjector(std::uint64_t seed) : rng_(seed) {}

void ChannelFaultInjector::drop(Window window, double probability,
                                int replica) {
  drops_.push_back(Fault{window, probability, replica});
}

void ChannelFaultInjector::duplicate(Window window, double probability,
                                     int replica) {
  duplicates_.push_back(Fault{window, probability, replica});
}

void ChannelFaultInjector::reorder(Window window, double probability,
                                   int replica) {
  reorders_.push_back(Fault{window, probability, replica});
}

void ChannelFaultInjector::corrupt(Window window, double probability,
                                   int replica) {
  corruptions_.push_back(Fault{window, probability, replica});
}

void ChannelFaultInjector::truncate(Window window, double probability,
                                    int replica) {
  truncations_.push_back(Fault{window, probability, replica});
}

void ChannelFaultInjector::partition(int replica, Window window) {
  partitions_.push_back(Outage{replica, window});
}

void ChannelFaultInjector::crash(int replica, Window window) {
  crashes_.push_back(Outage{replica, window});
}

bool ChannelFaultInjector::crashed(int replica, Seconds now) const {
  for (const Outage& o : crashes_)
    if (matches(o.replica, replica) && o.window.contains(now)) return true;
  return false;
}

bool ChannelFaultInjector::partitioned(int replica, Seconds now) const {
  for (const Outage& o : partitions_)
    if (matches(o.replica, replica) && o.window.contains(now)) return true;
  return false;
}

bool ChannelFaultInjector::roll(const std::vector<Fault>& faults, int replica,
                                Seconds now) {
  for (const Fault& f : faults) {
    if (!matches(f.replica, replica) || !f.window.contains(now)) continue;
    if (rng_.chance(f.probability)) {
      ++faults_injected_;
      return true;
    }
  }
  return false;
}

bool ChannelFaultInjector::roll_drop(int replica, Seconds now) {
  return roll(drops_, replica, now);
}

bool ChannelFaultInjector::roll_duplicate(int replica, Seconds now) {
  return roll(duplicates_, replica, now);
}

bool ChannelFaultInjector::roll_reorder(int replica, Seconds now) {
  return roll(reorders_, replica, now);
}

std::vector<std::uint8_t> ChannelFaultInjector::mutate(
    int replica, Seconds now, std::vector<std::uint8_t> frame) {
  if (frame.empty()) return frame;
  if (roll(corruptions_, replica, now)) {
    std::uint8_t& byte = frame[rng_.below(frame.size())];
    byte ^= static_cast<std::uint8_t>(1u << rng_.below(8));
  }
  if (roll(truncations_, replica, now))
    frame.resize(rng_.below(frame.size()));  // keep a strict prefix
  return frame;
}

// ---------------------------------------------------------------------------
// ReplicationBus

int ReplicationBus::subscribe(Sink sink) {
  endpoints_.push_back(Endpoint{std::move(sink), {}, false});
  return static_cast<int>(endpoints_.size()) - 1;
}

void ReplicationBus::deliver(Endpoint& ep,
                             const std::vector<std::uint8_t>& frame,
                             Seconds now) {
  ++stats_.delivered;
  ep.sink(frame, now);
}

void ReplicationBus::send(int replica, const std::vector<std::uint8_t>& frame,
                          Seconds now) {
  Endpoint& ep = endpoints_.at(static_cast<std::size_t>(replica));
  ++stats_.sent;

  if (faults_.crashed(replica, now) || faults_.partitioned(replica, now)) {
    ++stats_.blackholed;
    // Frames parked in the reorder slot are in the pipe: they die too.
    ep.holding = false;
    ep.held.clear();
    return;
  }
  if (faults_.roll_drop(replica, now)) {
    ++stats_.dropped;
    return;
  }

  std::vector<std::uint8_t> wire = faults_.mutate(replica, now, frame);
  if (wire != frame) ++stats_.mutated;

  if (!ep.holding && faults_.roll_reorder(replica, now)) {
    ep.held = std::move(wire);
    ep.holding = true;
    ++stats_.reordered;
    return;
  }

  deliver(ep, wire, now);
  if (faults_.roll_duplicate(replica, now)) {
    ++stats_.duplicated;
    deliver(ep, wire, now);
  }
  if (ep.holding) {
    const std::vector<std::uint8_t> held = std::move(ep.held);
    ep.holding = false;
    ep.held.clear();
    deliver(ep, held, now);  // the held frame lands after its successor
  }
}

// ---------------------------------------------------------------------------
// ReplicaStore

ReplicaStore::ReplicaStore(int id, Options options, obs::Obs obs)
    : id_(id), service_(options.service) {
  const obs::Labels who{{"replica", std::to_string(id)}};
  service_.set_obs(obs, who);
  recorder_ = obs.recorder;
  obs::MetricsRegistry& m = obs.metrics ? *obs.metrics : own_metrics_;
  fulls_applied_ =
      m.counter("remos_replication_applied_total",
                obs::with_label(who, "kind", "full"),
                "Snapshot frames applied by this replica, by frame kind.");
  deltas_applied_ =
      m.counter("remos_replication_applied_total",
                obs::with_label(who, "kind", "delta"),
                "Snapshot frames applied by this replica, by frame kind.");
  rejected_ = m.counter(
      "remos_replication_rejected_total", who,
      "Frames refused as corrupt or truncated by this replica.");
  ignored_stale_ = m.counter(
      "remos_replication_ignored_stale_total", who,
      "Duplicated or late frames at or below the applied version.");
  gaps_ = m.counter("remos_replication_gaps_total", who,
                    "Delta base-version mismatches detected.");
  resyncs_ = m.counter("remos_replication_resyncs_total", who,
                       "Full frames that repaired a gap or restart.");
  restarts_ = m.counter("remos_replication_restarts_total", who,
                        "Crash-to-restart transitions of this replica.");
}

void ReplicaStore::on_frame(const std::vector<std::uint8_t>& frame,
                            Seconds now) {
  collector::SnapshotFrame f;
  try {
    f = collector::decode_frame(frame);
  } catch (const ProtocolError& e) {
    rejected_.inc();
    if (recorder_)
      recorder_->record(obs::EventSeverity::kWarn, "replication",
                        "frame_rejected",
                        "replica " + std::to_string(id_) + ": " + e.what(),
                        now);
    return;
  }

  // Redelivery idempotence: duplicates and late reorders arrive at or
  // below the applied version and are ignored without touching state.
  if (f.version <= applied_.load(std::memory_order_relaxed)) {
    ignored_stale_.inc();
    return;
  }

  if (f.kind == collector::FrameKind::kFull) {
    collector::NetworkModel next;
    try {
      next = collector::materialize(f);
    } catch (const ProtocolError& e) {
      rejected_.inc();
      if (recorder_)
        recorder_->record(obs::EventSeverity::kWarn, "replication",
                          "frame_rejected",
                          "replica " + std::to_string(id_) + ": " + e.what(),
                          now);
      return;
    }
    const bool repaired = needs_full_.load(std::memory_order_relaxed);
    model_ = std::move(next);
    applied_.store(f.version, std::memory_order_release);
    needs_full_.store(false, std::memory_order_release);
    fulls_applied_.inc();
    if (repaired && ever_synced_) {
      resyncs_.inc();
      if (recorder_)
        recorder_->record(obs::EventSeverity::kInfo, "replication", "resync",
                          "replica " + std::to_string(id_) +
                              " resynced at version " +
                              std::to_string(f.version),
                          now);
    }
    ever_synced_ = true;
    publish_to_service(f.taken_at);
    return;
  }

  // Delta: only applicable against exactly the replica's applied version.
  const std::uint64_t applied = applied_.load(std::memory_order_relaxed);
  if (applied == 0 || f.base_version != applied) {
    gaps_.inc();
    needs_full_.store(true, std::memory_order_release);
    if (recorder_)
      recorder_->record(obs::EventSeverity::kWarn, "replication",
                        "gap_detected",
                        "replica " + std::to_string(id_) + ": delta v" +
                            std::to_string(f.version) + " wants base v" +
                            std::to_string(f.base_version) + ", have v" +
                            std::to_string(applied),
                        now);
    return;
  }
  try {
    collector::apply_delta(model_, f);
  } catch (const ProtocolError& e) {
    // The model may be partially mutated now; a full resync repairs it.
    rejected_.inc();
    needs_full_.store(true, std::memory_order_release);
    if (recorder_)
      recorder_->record(obs::EventSeverity::kWarn, "replication",
                        "frame_rejected",
                        "replica " + std::to_string(id_) + ": " + e.what(),
                        now);
    return;
  }
  applied_.store(f.version, std::memory_order_release);
  deltas_applied_.inc();
  publish_to_service(f.taken_at);
}

void ReplicaStore::note_outage(Seconds now) {
  if (crashed_) return;
  crashed_ = true;
  serving_.store(false, std::memory_order_release);
  if (recorder_)
    recorder_->record(obs::EventSeverity::kWarn, "replication", "replica_down",
                      "replica " + std::to_string(id_) + " crashed", now);
}

void ReplicaStore::note_alive(Seconds now) {
  if (crashed_) {
    // Restart: the volatile state (model + applied version) is gone, and
    // the service answers from nothing until a full frame resyncs it.
    crashed_ = false;
    model_ = collector::NetworkModel{};
    applied_.store(0, std::memory_order_release);
    needs_full_.store(true, std::memory_order_release);
    restarts_.inc();
    service_.publish(collector::NetworkModel{}, now);
    if (recorder_)
      recorder_->record(obs::EventSeverity::kInfo, "replication",
                        "replica_restart",
                        "replica " + std::to_string(id_) +
                            " restarted empty; awaiting full resync",
                        now);
  }
  serving_.store(true, std::memory_order_release);
  service_.note_model_now(now);
}

void ReplicaStore::publish_to_service(Seconds taken_at) {
  service_.publish(model_, taken_at);
}

ReplicaStore::Stats ReplicaStore::stats() const {
  Stats s;
  s.fulls_applied = fulls_applied_.value();
  s.deltas_applied = deltas_applied_.value();
  s.rejected = rejected_.value();
  s.ignored_stale = ignored_stale_.value();
  s.gaps = gaps_.value();
  s.resyncs = resyncs_.value();
  s.restarts = restarts_.value();
  return s;
}

}  // namespace remos::service
