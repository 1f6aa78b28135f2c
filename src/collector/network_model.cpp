#include "collector/network_model.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace remos::collector {

std::vector<double> LinkHistory::used_in_window(Seconds now, Seconds window,
                                                bool ab) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const Sample& s = samples_[i];
    if (window > 0 && s.at <= now - window) continue;
    if (s.at > now) continue;
    out.push_back(ab ? s.used_ab : s.used_ba);
  }
  return out;
}

obs::WindowStats LinkHistory::used_windowed(Seconds now, Seconds window,
                                            bool ab) const {
  Seconds raw_oldest = std::numeric_limits<Seconds>::infinity();
  if (!samples_.empty()) raw_oldest = samples_.front().at;
  return rollups(ab).stitched(now, window, used_in_window(now, window, ab),
                              raw_oldest);
}

Measurement LinkHistory::used_measurement(Seconds now, Seconds window,
                                          bool ab) const {
  return used_windowed(now, window, ab).measurement;
}

std::size_t LinkHistory::memory_bytes() const {
  return samples_.size() * sizeof(Sample) + rollup_ab_.memory_bytes() +
         rollup_ba_.memory_bytes();
}

ModelNode& NetworkModel::upsert_node(const std::string& name,
                                     bool is_router) {
  auto [it, inserted] = nodes_.try_emplace(name);
  ModelNode& node = it->second;
  if (inserted) {
    node.name = name;
    node.is_router_ = is_router;
    ++structure_version_;
  } else if (is_router) {
    set_router(node, true);  // router knowledge dominates
  }
  return node;
}

ModelLink& NetworkModel::upsert_link(const std::string& a,
                                     const std::string& b,
                                     BitsPerSec capacity, Seconds latency) {
  if (a == b) throw InvalidArgument("upsert_link: self-loop " + a);
  if (!has_node(a) || !has_node(b))
    throw InvalidArgument("upsert_link: unknown endpoint");
  bool flipped = false;
  if (ModelLink* existing = find_link(a, b, &flipped)) return *existing;
  ModelLink& link = links_.emplace_back();
  link.a = a;
  link.b = b;
  link.capacity = capacity;
  link.latency = latency;
  link_index_[{a, b}] = links_.size() - 1;
  ++structure_version_;
  return link;
}

void NetworkModel::set_router(ModelNode& node, bool is_router) {
  if (node.is_router_ == is_router) return;
  node.is_router_ = is_router;
  ++structure_version_;
}

void NetworkModel::set_link_up(ModelLink& link, bool up) {
  if (link.up_ == up) return;  // pollers re-assert the state every round
  link.up_ = up;
  ++structure_version_;
}

bool NetworkModel::has_node(const std::string& name) const {
  return nodes_.contains(name);
}

const ModelNode& NetworkModel::node(const std::string& name) const {
  const auto it = nodes_.find(name);
  if (it == nodes_.end())
    throw NotFoundError("NetworkModel: unknown node " + name);
  return it->second;
}

ModelNode& NetworkModel::node(const std::string& name) {
  const auto it = nodes_.find(name);
  if (it == nodes_.end())
    throw NotFoundError("NetworkModel: unknown node " + name);
  return it->second;
}

const ModelLink* NetworkModel::find_link(const std::string& a,
                                         const std::string& b,
                                         bool* flipped) const {
  if (auto it = link_index_.find({a, b}); it != link_index_.end()) {
    if (flipped) *flipped = false;
    return &links_[it->second];
  }
  if (auto it = link_index_.find({b, a}); it != link_index_.end()) {
    if (flipped) *flipped = true;
    return &links_[it->second];
  }
  return nullptr;
}

ModelLink* NetworkModel::find_link(const std::string& a, const std::string& b,
                                   bool* flipped) {
  return const_cast<ModelLink*>(
      std::as_const(*this).find_link(a, b, flipped));
}

std::vector<std::string> NetworkModel::neighbors(
    const std::string& name) const {
  std::vector<std::string> out;
  for (const ModelLink& l : links_) {
    if (l.a == name) out.push_back(l.b);
    if (l.b == name) out.push_back(l.a);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool NetworkModel::remove_link(const std::string& a, const std::string& b) {
  bool flipped = false;
  const ModelLink* found = find_link(a, b, &flipped);
  if (!found) return false;
  const std::pair<std::string, std::string> key =
      flipped ? std::make_pair(b, a) : std::make_pair(a, b);
  const std::size_t at = link_index_.at(key);
  links_.erase(links_.begin() + static_cast<std::ptrdiff_t>(at));
  link_index_.erase(key);
  // Indices past the erased slot shifted down by one.
  for (auto& [names, index] : link_index_)
    if (index > at) --index;
  ++structure_version_;
  return true;
}

bool NetworkModel::remove_node(const std::string& name) {
  const auto it = nodes_.find(name);
  if (it == nodes_.end()) return false;
  for (std::size_t i = links_.size(); i-- > 0;)
    if (links_[i].a == name || links_[i].b == name)
      remove_link(links_[i].a, links_[i].b);
  nodes_.erase(it);
  ++structure_version_;
  return true;
}

std::int32_t RoutingIndex::id_of(const std::string& name) const {
  const auto it = ids_.find(name);
  return it == ids_.end() ? kNoNode : it->second;
}

void RoutingIndex::build(const NetworkModel& model) {
  names_.reserve(model.nodes().size());
  for (const auto& [name, node] : model.nodes()) {
    ids_.emplace(name, static_cast<std::int32_t>(names_.size()));
    names_.push_back(name);
    is_router_.push_back(node.is_router() ? 1 : 0);
  }
  const std::size_t n = names_.size();
  rows_.resize(n);

  // CSR adjacency over up links: count degrees, place, then sort each
  // node's slice by neighbor id so BFS expansion follows name order.
  std::vector<std::uint32_t> degree(n, 0);
  const auto& links = model.links();
  for (const ModelLink& l : links) {
    if (!l.up()) continue;
    ++degree[static_cast<std::size_t>(ids_.at(l.a))];
    ++degree[static_cast<std::size_t>(ids_.at(l.b))];
  }
  adj_offset_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    adj_offset_[i + 1] = adj_offset_[i] + degree[i];
  adj_.resize(adj_offset_[n]);
  std::vector<std::uint32_t> cursor(adj_offset_.begin(),
                                    adj_offset_.end() - 1);
  for (std::size_t li = 0; li < links.size(); ++li) {
    const ModelLink& l = links[li];
    if (!l.up()) continue;
    const auto ia = ids_.at(l.a);
    const auto ib = ids_.at(l.b);
    adj_[cursor[static_cast<std::size_t>(ia)]++] =
        Hop{ib, static_cast<std::uint32_t>(li)};
    adj_[cursor[static_cast<std::size_t>(ib)]++] =
        Hop{ia, static_cast<std::uint32_t>(li)};
  }
  for (std::size_t i = 0; i < n; ++i)
    std::sort(adj_.begin() + adj_offset_[i], adj_.begin() + adj_offset_[i + 1],
              [](const Hop& x, const Hop& y) { return x.neighbor < y.neighbor; });
}

const RoutingIndex::Row& RoutingIndex::row_from(std::int32_t src) const {
  if (src < 0 || static_cast<std::size_t>(src) >= names_.size())
    throw InvalidArgument("RoutingIndex: node id out of range");
  const auto s = static_cast<std::size_t>(src);
  lock();
  if (rows_[s]) {
    const Row& ready = *rows_[s];
    unlock();
    return ready;
  }
  unlock();

  // Build outside the lock (BFS can be slow on big graphs); losing a
  // race just wastes one redundant build.
  auto row = std::make_unique<Row>();
  const std::size_t n = names_.size();
  row->parent.assign(n, kNoNode);
  row->via_link.assign(n, 0);
  row->parent[s] = src;
  std::vector<std::int32_t> frontier;
  frontier.reserve(n);
  frontier.push_back(src);
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const std::int32_t cur = frontier[head];
    const auto c = static_cast<std::size_t>(cur);
    if (cur != src && !is_router_[c]) continue;  // hosts do not forward
    for (std::uint32_t k = adj_offset_[c]; k < adj_offset_[c + 1]; ++k) {
      const Hop& hop = adj_[k];
      const auto v = static_cast<std::size_t>(hop.neighbor);
      if (row->parent[v] != kNoNode) continue;
      row->parent[v] = cur;
      row->via_link[v] = hop.link;
      frontier.push_back(hop.neighbor);
    }
  }

  lock();
  if (!rows_[s]) rows_[s] = std::move(row);
  const Row& ready = *rows_[s];
  unlock();
  return ready;
}

const RoutingIndex& NetworkModel::routing_index() const {
  routing_cache_.lock();
  if (!routing_cache_.index || routing_cache_.version != structure_version_) {
    auto index = std::make_shared<RoutingIndex>();
    index->build(*this);
    routing_cache_.index = std::move(index);
    routing_cache_.version = structure_version_;
  }
  const RoutingIndex& ref = *routing_cache_.index;
  routing_cache_.unlock();
  return ref;
}

void NetworkModel::merge_from(const NetworkModel& other) {
  for (const auto& [name, n] : other.nodes()) {
    ModelNode& mine = upsert_node(name, n.is_router());
    if (n.internal_bw > 0) mine.internal_bw = n.internal_bw;
    if (n.has_host_info) {
      mine.has_host_info = true;
      mine.cpu_load = n.cpu_load;
      mine.memory_mb = n.memory_mb;
    }
  }
  for (const ModelLink& l : other.links()) {
    bool flipped = false;
    ModelLink* mine = find_link(l.a, l.b, &flipped);
    if (!mine) {
      mine = &upsert_link(l.a, l.b, l.capacity, l.latency);
      flipped = false;
    }
    set_link_up(*mine, l.up());
    if (l.sharing != SharingPolicy::kUnknown) mine->sharing = l.sharing;
    mine->last_update = std::max(mine->last_update, l.last_update);
    // Adopt the other collector's samples that are newer than anything we
    // already hold (clock domains are shared: both stamp in sim time).
    const Seconds newest = mine->history.empty()
                               ? -std::numeric_limits<Seconds>::infinity()
                               : mine->history.latest().at;
    for (std::size_t i = 0; i < l.history.size(); ++i) {
      const Sample s = l.history.sample(i);
      if (s.at > newest) {
        Sample adjusted = s;
        if (flipped) std::swap(adjusted.used_ab, adjusted.used_ba);
        mine->history.record(adjusted);
      }
    }
  }
}

}  // namespace remos::collector
