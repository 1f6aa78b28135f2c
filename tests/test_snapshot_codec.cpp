// Snapshot wire format: canonical round-trips, delta semantics, and the
// fingerprint contract the replication plane's resync convergence check
// rests on (ISSUE 6).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "collector/network_model.hpp"
#include "collector/snapshot_codec.hpp"
#include "netsim/generators.hpp"
#include "netsim/topology.hpp"
#include "util/error.hpp"

namespace remos::collector {
namespace {

/// Collector-model construction from a generated topology (what a
/// completed discovery pass would produce), with one quiet sample per
/// link so dynamic timeframes have data.
NetworkModel build_model(const netsim::Topology& topo) {
  NetworkModel model;
  for (const netsim::Node& n : topo.nodes())
    model.upsert_node(n.name, n.kind == netsim::NodeKind::kNetwork)
        .internal_bw = n.internal_bw;
  for (const netsim::Link& l : topo.links()) {
    ModelLink& ml = model.upsert_link(topo.name_of(l.a), topo.name_of(l.b),
                                      l.capacity, l.latency);
    ml.last_update = 1.0;
    ml.history.record(Sample{1.0, 0.0, 0.0});
  }
  return model;
}

std::vector<NetworkModel> generator_family_models() {
  std::vector<NetworkModel> out;
  netsim::FatTreeParams ft;
  ft.k = 4;
  out.push_back(build_model(make_fat_tree(ft)));
  netsim::DumbbellParams db;
  db.hosts_per_side = 16;
  db.trunk_hops = 2;
  out.push_back(build_model(make_dumbbell(db)));
  netsim::WaxmanParams wx;
  wx.hosts = 64;
  wx.routers = 16;
  wx.seed = 7;
  out.push_back(build_model(make_waxman(wx)));
  return out;
}

TEST(SnapshotCodec, FullRoundTripIsBitIdenticalAcrossGeneratorFamilies) {
  for (const NetworkModel& model : generator_family_models()) {
    const std::vector<std::uint8_t> wire = encode_full(model, 7, 3.5);
    const SnapshotFrame frame = decode_frame(wire);
    EXPECT_EQ(frame.kind, FrameKind::kFull);
    EXPECT_EQ(frame.version, 7u);
    EXPECT_EQ(frame.base_version, 0u);
    EXPECT_DOUBLE_EQ(frame.taken_at, 3.5);
    EXPECT_EQ(frame.nodes.size(), model.nodes().size());
    EXPECT_EQ(frame.links.size(), model.links().size());

    const NetworkModel rebuilt = materialize(frame);
    EXPECT_EQ(model_fingerprint(rebuilt), model_fingerprint(model));
    // Re-encoding the materialized model reproduces the exact bytes: the
    // canonical body is a fixed point, so fingerprint equality really
    // does mean wire-visible state equality.
    EXPECT_EQ(encode_full(rebuilt, 7, 3.5), wire);
  }
}

TEST(SnapshotCodec, HistoryTailIsBoundedAndCanonical) {
  NetworkModel model;
  model.upsert_node("a", false);
  model.upsert_node("b", true);
  ModelLink& l = model.upsert_link("a", "b", mbps(100), millis(1));
  l.last_update = 50.0;
  for (int i = 0; i < 40; ++i)
    l.history.record(Sample{static_cast<Seconds>(i), mbps(i), mbps(2 * i)});

  const std::vector<std::uint8_t> wire = encode_full(model, 1, 50.0);
  const NetworkModel rebuilt = materialize(decode_frame(wire));
  const ModelLink* rl = rebuilt.find_link("a", "b", nullptr);
  ASSERT_NE(rl, nullptr);
  ASSERT_EQ(rl->history.size(), kWireSampleCap);
  // The tail keeps the *newest* samples, oldest first.
  EXPECT_DOUBLE_EQ(rl->history.sample(0).at, 40.0 - kWireSampleCap);
  EXPECT_DOUBLE_EQ(rl->history.latest().at, 39.0);
  // The bounded tail is itself canonical: encoding the rebuilt model
  // reproduces the wire bytes even though the source had 40 samples.
  EXPECT_EQ(encode_full(rebuilt, 1, 50.0), wire);
  EXPECT_EQ(model_fingerprint(rebuilt), model_fingerprint(model));
}

TEST(SnapshotCodec, FingerprintIgnoresLinkInsertionOrder) {
  NetworkModel forward;
  NetworkModel backward;
  for (NetworkModel* m : {&forward, &backward}) {
    m->upsert_node("h1", false);
    m->upsert_node("h2", false);
    m->upsert_node("r", true);
  }
  forward.upsert_link("h1", "r", mbps(10), millis(1));
  forward.upsert_link("h2", "r", mbps(10), millis(1));
  backward.upsert_link("h2", "r", mbps(10), millis(1));
  backward.upsert_link("h1", "r", mbps(10), millis(1));
  EXPECT_EQ(model_fingerprint(forward), model_fingerprint(backward));
}

/// Base model for the delta tests plus an edited successor exercising
/// every delta record type: sample append, attribute change, status
/// flip, node add, link add, link remove, node remove.
struct DeltaFixture {
  NetworkModel base;
  NetworkModel next;
  DeltaFixture() {
    netsim::WaxmanParams wx;
    wx.hosts = 32;
    wx.routers = 8;
    wx.seed = 11;
    base = build_model(make_waxman(wx));
    next = base;

    ModelLink& touched = next.links()[0];
    touched.history.record(Sample{2.0, mbps(30), mbps(12)});
    touched.last_update = 2.0;
    next.links()[1].latency = millis(9);
    next.set_link_up(next.links()[2], false);

    next.upsert_node("newcomer", false);
    const std::string anchor = next.links()[3].a;
    ModelLink& fresh =
        next.upsert_link("newcomer", anchor, mbps(100), millis(0.5));
    fresh.last_update = 2.0;
    fresh.history.record(Sample{2.0, 0.0, 0.0});

    const std::string gone_a = next.links()[4].a;
    const std::string gone_b = next.links()[4].b;
    if (!next.remove_link(gone_a, gone_b)) ADD_FAILURE() << "link missing";
    // Removing a host drops it and its incident links in one edit.
    if (!next.remove_node("h0")) ADD_FAILURE() << "node missing";
  }
};

TEST(SnapshotCodec, DeltaApplyConvergesToNextFingerprint) {
  DeltaFixture fx;
  const std::vector<std::uint8_t> wire =
      encode_delta(fx.base, 1, fx.next, 2, 2.0);
  const SnapshotFrame frame = decode_frame(wire);
  EXPECT_EQ(frame.kind, FrameKind::kDelta);
  EXPECT_EQ(frame.version, 2u);
  EXPECT_EQ(frame.base_version, 1u);
  EXPECT_FALSE(frame.removed_links.empty());
  EXPECT_FALSE(frame.removed_nodes.empty());

  NetworkModel replica = fx.base;
  apply_delta(replica, frame);
  EXPECT_EQ(model_fingerprint(replica), model_fingerprint(fx.next));
  // Bit-level convergence, not just hash agreement.
  EXPECT_EQ(encode_full(replica, 2, 2.0), encode_full(fx.next, 2, 2.0));

  // Re-applying the same delta is a no-op: removals of unknown names are
  // ignored and upserts overwrite with identical records.
  apply_delta(replica, frame);
  EXPECT_EQ(model_fingerprint(replica), model_fingerprint(fx.next));
}

TEST(SnapshotCodec, DeltaIsSmallerThanFullForSmallEdits) {
  netsim::WaxmanParams wx;
  wx.hosts = 64;
  wx.routers = 16;
  wx.seed = 7;
  const NetworkModel base = build_model(make_waxman(wx));
  NetworkModel next = base;
  next.links()[0].history.record(Sample{2.0, mbps(5), mbps(1)});
  next.links()[0].last_update = 2.0;

  const auto delta = encode_delta(base, 1, next, 2, 2.0);
  const auto full = encode_full(next, 2, 2.0);
  EXPECT_LT(delta.size() * 10, full.size())
      << "one-link delta should be a small fraction of the full frame";
}

TEST(SnapshotCodec, IdenticalModelsYieldAnEmptyButValidDelta) {
  netsim::FatTreeParams ft;
  ft.k = 4;
  const NetworkModel model = build_model(make_fat_tree(ft));
  const auto wire = encode_delta(model, 3, model, 4, 9.0);
  const SnapshotFrame frame = decode_frame(wire);
  EXPECT_TRUE(frame.nodes.empty());
  EXPECT_TRUE(frame.links.empty());
  EXPECT_TRUE(frame.removed_nodes.empty());
  EXPECT_TRUE(frame.removed_links.empty());
  NetworkModel replica = model;
  apply_delta(replica, frame);
  EXPECT_EQ(model_fingerprint(replica), model_fingerprint(model));
}

TEST(SnapshotCodec, KindMismatchesAreStructuredErrors) {
  DeltaFixture fx;
  const SnapshotFrame full = decode_frame(encode_full(fx.base, 1, 1.0));
  const SnapshotFrame delta =
      decode_frame(encode_delta(fx.base, 1, fx.next, 2, 2.0));
  EXPECT_THROW(materialize(delta), ProtocolError);
  NetworkModel replica = fx.base;
  EXPECT_THROW(apply_delta(replica, full), ProtocolError);
}

TEST(SnapshotCodec, DeltaLinkAgainstUnknownNodeIsAStructuredError) {
  NetworkModel base;
  base.upsert_node("a", false);
  base.upsert_node("b", true);
  base.upsert_link("a", "b", mbps(10), millis(1));

  SnapshotFrame frame;
  frame.kind = FrameKind::kDelta;
  frame.version = 2;
  frame.base_version = 1;
  WireLink bogus;
  bogus.a = "a";
  bogus.b = "ghost";
  bogus.capacity = mbps(1);
  frame.links.push_back(bogus);
  EXPECT_THROW(apply_delta(base, frame), ProtocolError);
}

}  // namespace
}  // namespace remos::collector
