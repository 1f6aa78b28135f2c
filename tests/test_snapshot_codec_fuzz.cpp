// Fuzz-lite for the snapshot wire format (the BER-codec contract, PR 3,
// applied to the replication plane): every truncation and every
// single-bit flip of valid full and delta frames must resolve to a clean
// ProtocolError -- never a crash, a hang, or UB -- and seeded multi-byte
// mutations must either throw or decode to the original frame.  The
// trailing whole-frame checksum makes this contract strict: *any*
// in-flight perturbation is detected, which is exactly what the
// ReplicationBus corruption/truncation faults rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "collector/network_model.hpp"
#include "collector/snapshot_codec.hpp"
#include "netsim/generators.hpp"
#include "netsim/topology.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace remos::collector {
namespace {

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

/// One full and one delta frame per generator family.
std::vector<std::vector<std::uint8_t>> corpus() {
  std::vector<std::vector<std::uint8_t>> out;

  netsim::FatTreeParams ft;
  ft.k = 4;
  const NetworkModel fat = build_model(make_fat_tree(ft));
  netsim::DumbbellParams db;
  db.hosts_per_side = 8;
  db.trunk_hops = 2;
  const NetworkModel bell = build_model(make_dumbbell(db));
  netsim::WaxmanParams wx;
  wx.hosts = 24;
  wx.routers = 8;
  wx.seed = 5;
  const NetworkModel wax = build_model(make_waxman(wx));

  for (const NetworkModel* m : {&fat, &bell, &wax}) {
    out.push_back(encode_full(*m, 3, 7.0));
    NetworkModel next = *m;
    next.links()[0].history.record(Sample{8.0, mbps(4), mbps(2)});
    next.links()[0].last_update = 8.0;
    next.set_link_up(next.links()[1], false);
    out.push_back(encode_delta(*m, 3, next, 4, 8.0));
  }
  return out;
}

TEST(SnapshotCodecFuzz, RoundTripIsBitIdenticalAcrossGeneratorFamilies) {
  // The frames in the corpus are themselves the three-family round-trip
  // fixture: decode, rebuild, re-encode, compare bytes.
  for (const auto& wire : corpus()) {
    const SnapshotFrame frame = decode_frame(wire);
    if (frame.kind == FrameKind::kFull) {
      const NetworkModel rebuilt = materialize(frame);
      EXPECT_EQ(encode_full(rebuilt, frame.version, frame.taken_at), wire);
    }
  }
}

TEST(SnapshotCodecFuzz, EveryTruncationThrowsProtocolError) {
  for (const auto& wire : corpus()) {
    for (std::size_t len = 0; len < wire.size(); ++len) {
      const std::vector<std::uint8_t> cut(
          wire.begin(), wire.begin() + static_cast<long>(len));
      EXPECT_THROW((void)decode_frame(cut), ProtocolError)
          << "prefix of length " << len << " decoded";
    }
  }
}

TEST(SnapshotCodecFuzz, EverySingleBitFlipThrowsProtocolError) {
  // Stronger than the BER contract: the trailing FNV-1a64 covers every
  // frame byte and each FNV step is a bijection of the running state, so
  // any single-byte change must move the checksum.  No flip survives.
  for (const auto& wire : corpus()) {
    for (std::size_t i = 0; i < wire.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<std::uint8_t> flipped = wire;
        flipped[i] = static_cast<std::uint8_t>(flipped[i] ^ (1u << bit));
        EXPECT_THROW((void)decode_frame(flipped), ProtocolError)
            << "flip at byte " << i << " bit " << bit << " decoded";
      }
    }
  }
}

TEST(SnapshotCodecFuzz, SeededMutationsNeverEscapeStructuredErrors) {
  const auto frames = corpus();
  Rng rng(0xF122);
  for (int round = 0; round < 4000; ++round) {
    std::vector<std::uint8_t> mutated =
        frames[rng.below(frames.size())];
    const std::size_t edits = 1 + rng.below(8);
    for (std::size_t e = 0; e < edits; ++e) {
      switch (rng.below(3)) {
        case 0:  // byte splat
          mutated[rng.below(mutated.size())] =
              static_cast<std::uint8_t>(rng.below(256));
          break;
        case 1:  // truncate to a prefix
          mutated.resize(rng.below(mutated.size() + 1));
          break;
        default:  // append garbage
          mutated.push_back(static_cast<std::uint8_t>(rng.below(256)));
          break;
      }
      if (mutated.empty()) break;
    }
    try {
      const SnapshotFrame frame = decode_frame(mutated);
      // Only the identity mutation may decode; verify it really is one.
      bool identical = false;
      for (const auto& original : frames)
        identical = identical || mutated == original;
      EXPECT_TRUE(identical) << "mutated frame decoded in round " << round;
      (void)frame;
    } catch (const ProtocolError&) {
      // The contract: structured rejection.
    }
  }
}

TEST(SnapshotCodecFuzz, HeaderFieldGarbageIsRejected) {
  // Byte-splat each header field position across all 256 values; the
  // checksum (and for kind/version fields, explicit validation) must
  // reject every non-identity value.
  const std::vector<std::uint8_t> wire = corpus()[0];
  for (const std::size_t pos : {0u, 4u, 6u, 7u, 8u, 16u, 24u, 32u}) {
    for (int v = 0; v < 256; ++v) {
      std::vector<std::uint8_t> mutated = wire;
      if (mutated[pos] == static_cast<std::uint8_t>(v)) continue;
      mutated[pos] = static_cast<std::uint8_t>(v);
      EXPECT_THROW((void)decode_frame(mutated), ProtocolError)
          << "header byte " << pos << " = " << v << " decoded";
    }
  }
}

}  // namespace
}  // namespace remos::collector
