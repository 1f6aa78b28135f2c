#include "collector/snapshot_codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <set>

#include "util/error.hpp"

namespace remos::collector {
namespace {

constexpr std::uint8_t kMagic[4] = {'R', 'S', 'N', 'P'};
constexpr std::size_t kHeaderSize = 36;   // through payload-length field
constexpr std::size_t kChecksumSize = 8;

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// --- little-endian writer --------------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}
void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  if (s.size() > 0xffff)
    throw ProtocolError("snapshot codec: name longer than 65535 bytes");
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

// --- bounds-checked reader -------------------------------------------

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() {
    const std::uint8_t* p = take(2);
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
  }
  std::uint32_t u32() {
    const std::uint8_t* p = take(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }
  std::uint64_t u64() {
    const std::uint8_t* p = take(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::size_t n = u16();
    const std::uint8_t* p = take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }
  bool done() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* take(std::size_t n) {
    if (size_ - pos_ < n)
      throw ProtocolError("snapshot codec: truncated frame");
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// --- canonical record encodings --------------------------------------

void encode_node(std::vector<std::uint8_t>& out, const ModelNode& n) {
  put_str(out, n.name);
  const std::uint8_t flags = static_cast<std::uint8_t>(
      (n.is_router() ? 1u : 0u) | (n.has_host_info ? 2u : 0u));
  put_u8(out, flags);
  put_f64(out, n.internal_bw);
  put_f64(out, n.cpu_load);
  put_u32(out, n.memory_mb);
}

void encode_link(std::vector<std::uint8_t>& out, const ModelLink& l) {
  put_str(out, l.a);
  put_str(out, l.b);
  put_f64(out, l.capacity);
  put_f64(out, l.latency);
  put_u8(out, l.up() ? 1 : 0);
  put_u8(out, static_cast<std::uint8_t>(l.sharing));
  put_f64(out, l.last_update);
  const std::size_t n = std::min(l.history.size(), kWireSampleCap);
  put_u16(out, static_cast<std::uint16_t>(n));
  for (std::size_t i = l.history.size() - n; i < l.history.size(); ++i) {
    const Sample& s = l.history.sample(i);
    put_f64(out, s.at);
    put_f64(out, s.used_ab);
    put_f64(out, s.used_ba);
  }
}

/// Link indices in canonical (a, b) name order.
std::vector<std::size_t> canonical_link_order(const NetworkModel& m) {
  std::vector<std::size_t> order(m.links().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    const ModelLink& lx = m.links()[x];
    const ModelLink& ly = m.links()[y];
    return std::tie(lx.a, lx.b) < std::tie(ly.a, ly.b);
  });
  return order;
}

/// The canonical model body: the full-frame payload (and the fingerprint
/// input).  Nodes in name order (std::map), links in (a, b) order.
std::vector<std::uint8_t> encode_body(const NetworkModel& m) {
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(m.nodes().size()));
  for (const auto& [name, node] : m.nodes()) encode_node(out, node);
  const std::vector<std::size_t> order = canonical_link_order(m);
  put_u32(out, static_cast<std::uint32_t>(order.size()));
  for (const std::size_t i : order) encode_link(out, m.links()[i]);
  return out;
}

WireNode decode_node(Reader& r) {
  WireNode n;
  n.name = r.str();
  if (n.name.empty())
    throw ProtocolError("snapshot codec: empty node name");
  const std::uint8_t flags = r.u8();
  if (flags > 3)
    throw ProtocolError("snapshot codec: unknown node flags");
  n.is_router = flags & 1;
  n.has_host_info = flags & 2;
  n.internal_bw = r.f64();
  n.cpu_load = r.f64();
  n.memory_mb = r.u32();
  return n;
}

WireLink decode_link(Reader& r) {
  WireLink l;
  l.a = r.str();
  l.b = r.str();
  if (l.a.empty() || l.b.empty() || l.a == l.b)
    throw ProtocolError("snapshot codec: bad link endpoints");
  l.capacity = r.f64();
  l.latency = r.f64();
  const std::uint8_t up = r.u8();
  if (up > 1) throw ProtocolError("snapshot codec: bad link up flag");
  l.up = up == 1;
  const std::uint8_t sharing = r.u8();
  if (sharing > static_cast<std::uint8_t>(SharingPolicy::kWeightedShare))
    throw ProtocolError("snapshot codec: unknown sharing policy");
  l.sharing = static_cast<SharingPolicy>(sharing);
  l.last_update = r.f64();
  const std::size_t n = r.u16();
  if (n > kWireSampleCap)
    throw ProtocolError("snapshot codec: sample tail exceeds cap");
  l.samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    WireSample s;
    s.at = r.f64();
    s.used_ab = r.f64();
    s.used_ba = r.f64();
    l.samples.push_back(s);
  }
  return l;
}

std::vector<std::uint8_t> frame(FrameKind kind, std::uint64_t version,
                                std::uint64_t base_version, Seconds taken_at,
                                const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + payload.size() + kChecksumSize);
  for (const std::uint8_t b : kMagic) put_u8(out, b);
  put_u16(out, kSnapshotWireVersion);
  put_u8(out, static_cast<std::uint8_t>(kind));
  put_u8(out, 0);
  put_u64(out, version);
  put_u64(out, base_version);
  put_f64(out, taken_at);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  put_u64(out, fnv1a64(out.data(), out.size()));
  return out;
}

/// Overwrites a model link's fields and rebuilds its history from the
/// wire sample tail (the canonical form both sides fingerprint).
void overwrite_link(NetworkModel& m, ModelLink& ml, const WireLink& wl) {
  ml.capacity = wl.capacity;
  ml.latency = wl.latency;
  m.set_link_up(ml, wl.up);
  ml.sharing = wl.sharing;
  ml.last_update = wl.last_update;
  ml.history = LinkHistory{};
  for (const WireSample& s : wl.samples)
    ml.history.record(Sample{s.at, s.used_ab, s.used_ba});
}

void overwrite_node(NetworkModel& m, ModelNode& mn, const WireNode& wn) {
  m.set_router(mn, wn.is_router);
  mn.has_host_info = wn.has_host_info;
  mn.internal_bw = wn.internal_bw;
  mn.cpu_load = wn.cpu_load;
  mn.memory_mb = wn.memory_mb;
}

void upsert_wire_link(NetworkModel& m, const WireLink& wl) {
  if (!m.has_node(wl.a) || !m.has_node(wl.b))
    throw ProtocolError("snapshot codec: link references unknown node " +
                        (m.has_node(wl.a) ? wl.b : wl.a));
  // A stored flipped orientation means the primary removed and re-added
  // the link; mirror that so sample directions stay aligned.
  bool flipped = false;
  if (m.find_link(wl.a, wl.b, &flipped) && flipped)
    m.remove_link(wl.a, wl.b);
  ModelLink& ml = m.upsert_link(wl.a, wl.b, wl.capacity, wl.latency);
  overwrite_link(m, ml, wl);
}

}  // namespace

std::vector<std::uint8_t> encode_full(const NetworkModel& model,
                                      std::uint64_t version,
                                      Seconds taken_at) {
  return frame(FrameKind::kFull, version, 0, taken_at, encode_body(model));
}

std::vector<std::uint8_t> encode_delta(const NetworkModel& base,
                                       std::uint64_t base_version,
                                       const NetworkModel& next,
                                       std::uint64_t version,
                                       Seconds taken_at) {
  // Canonical per-record bytes on both sides; a record that changed in
  // any wire-visible way (including a new sample in the tail) differs.
  std::map<std::string, std::vector<std::uint8_t>> base_nodes;
  for (const auto& [name, node] : base.nodes())
    encode_node(base_nodes[name], node);
  std::map<std::pair<std::string, std::string>, std::vector<std::uint8_t>>
      base_links;
  for (const ModelLink& l : base.links())
    encode_link(base_links[{l.a, l.b}], l);

  std::vector<std::uint8_t> removed_nodes_pl;
  std::uint32_t removed_nodes = 0;
  for (const auto& [name, bytes] : base_nodes) {
    if (!next.has_node(name)) {
      put_str(removed_nodes_pl, name);
      ++removed_nodes;
    }
  }
  std::vector<std::uint8_t> removed_links_pl;
  std::uint32_t removed_links = 0;
  for (const auto& [names, bytes] : base_links) {
    if (!next.find_link(names.first, names.second)) {
      put_str(removed_links_pl, names.first);
      put_str(removed_links_pl, names.second);
      ++removed_links;
    }
  }

  std::vector<std::uint8_t> nodes_pl;
  std::uint32_t changed_nodes = 0;
  for (const auto& [name, node] : next.nodes()) {
    std::vector<std::uint8_t> rec;
    encode_node(rec, node);
    const auto it = base_nodes.find(name);
    if (it != base_nodes.end() && it->second == rec) continue;
    nodes_pl.insert(nodes_pl.end(), rec.begin(), rec.end());
    ++changed_nodes;
  }
  std::vector<std::uint8_t> links_pl;
  std::uint32_t changed_links = 0;
  for (const std::size_t i : canonical_link_order(next)) {
    const ModelLink& l = next.links()[i];
    std::vector<std::uint8_t> rec;
    encode_link(rec, l);
    const auto it = base_links.find({l.a, l.b});
    if (it != base_links.end() && it->second == rec) continue;
    links_pl.insert(links_pl.end(), rec.begin(), rec.end());
    ++changed_links;
  }

  std::vector<std::uint8_t> payload;
  put_u32(payload, removed_nodes);
  payload.insert(payload.end(), removed_nodes_pl.begin(),
                 removed_nodes_pl.end());
  put_u32(payload, removed_links);
  payload.insert(payload.end(), removed_links_pl.begin(),
                 removed_links_pl.end());
  put_u32(payload, changed_nodes);
  payload.insert(payload.end(), nodes_pl.begin(), nodes_pl.end());
  put_u32(payload, changed_links);
  payload.insert(payload.end(), links_pl.begin(), links_pl.end());
  return frame(FrameKind::kDelta, version, base_version, taken_at, payload);
}

SnapshotFrame decode_frame(const std::vector<std::uint8_t>& wire) {
  if (wire.size() < kHeaderSize + kChecksumSize)
    throw ProtocolError("snapshot codec: frame shorter than header");
  if (std::memcmp(wire.data(), kMagic, 4) != 0)
    throw ProtocolError("snapshot codec: bad magic");
  const std::uint64_t declared =
      Reader(wire.data() + wire.size() - kChecksumSize, kChecksumSize).u64();
  if (declared != fnv1a64(wire.data(), wire.size() - kChecksumSize))
    throw ProtocolError("snapshot codec: checksum mismatch");

  Reader r(wire.data() + 4, wire.size() - 4 - kChecksumSize);
  SnapshotFrame f;
  const std::uint16_t wire_version = r.u16();
  if (wire_version != kSnapshotWireVersion)
    throw ProtocolError("snapshot codec: unsupported wire version " +
                        std::to_string(wire_version));
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(FrameKind::kDelta))
    throw ProtocolError("snapshot codec: unknown frame kind");
  f.kind = static_cast<FrameKind>(kind);
  if (r.u8() != 0)
    throw ProtocolError("snapshot codec: nonzero reserved byte");
  f.version = r.u64();
  f.base_version = r.u64();
  f.taken_at = r.f64();
  const std::uint32_t payload_len = r.u32();
  if (payload_len != r.remaining())
    throw ProtocolError("snapshot codec: payload length mismatch");
  if (f.kind == FrameKind::kFull && f.base_version != 0)
    throw ProtocolError("snapshot codec: full frame with base version");

  if (f.kind == FrameKind::kDelta) {
    const std::uint32_t rn = r.u32();
    for (std::uint32_t i = 0; i < rn; ++i)
      f.removed_nodes.push_back(r.str());
    const std::uint32_t rl = r.u32();
    for (std::uint32_t i = 0; i < rl; ++i) {
      std::string a = r.str();
      std::string b = r.str();
      f.removed_links.emplace_back(std::move(a), std::move(b));
    }
  }
  const std::uint32_t nn = r.u32();
  for (std::uint32_t i = 0; i < nn; ++i) f.nodes.push_back(decode_node(r));
  const std::uint32_t nl = r.u32();
  for (std::uint32_t i = 0; i < nl; ++i) f.links.push_back(decode_link(r));
  if (!r.done())
    throw ProtocolError("snapshot codec: trailing bytes in payload");
  return f;
}

NetworkModel materialize(const SnapshotFrame& full) {
  if (full.kind != FrameKind::kFull)
    throw ProtocolError("snapshot codec: materialize needs a full frame");
  NetworkModel m;
  for (const WireNode& n : full.nodes)
    overwrite_node(m, m.upsert_node(n.name, n.is_router), n);
  for (const WireLink& l : full.links) upsert_wire_link(m, l);
  return m;
}

void apply_delta(NetworkModel& m, const SnapshotFrame& delta) {
  if (delta.kind != FrameKind::kDelta)
    throw ProtocolError("snapshot codec: apply_delta needs a delta frame");
  for (const auto& [a, b] : delta.removed_links) m.remove_link(a, b);
  for (const std::string& name : delta.removed_nodes) m.remove_node(name);
  for (const WireNode& n : delta.nodes)
    overwrite_node(m, m.upsert_node(n.name, n.is_router), n);
  for (const WireLink& l : delta.links) upsert_wire_link(m, l);
}

std::uint64_t model_fingerprint(const NetworkModel& model) {
  const std::vector<std::uint8_t> body = encode_body(model);
  return fnv1a64(body.data(), body.size());
}

}  // namespace remos::collector
