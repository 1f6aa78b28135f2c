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

namespace {

netsim::RouteKernel model_kernel(const NetworkModel& model) {
  std::vector<std::string> names;
  std::vector<char> forwards;
  for (const auto& [name, node] : model.nodes()) {
    names.push_back(name);
    forwards.push_back(node.is_router() ? 1 : 0);
  }
  std::vector<netsim::RouteKernel::Edge> edges;
  for (std::size_t li = 0; li < model.links().size(); ++li) {
    const ModelLink& l = model.links()[li];
    if (l.up())
      edges.push_back({l.a, l.b, static_cast<std::int32_t>(li), 1, l.latency});
  }
  return netsim::RouteKernel(std::move(names), std::move(forwards), edges);
}

}  // namespace

RoutingIndex::RoutingIndex(const NetworkModel& model)
    : kernel_(model_kernel(model)) {
  // Ids are in name order, the order of model.nodes().
  nodes_.reserve(model.nodes().size());
  for (const auto& [name, node] : model.nodes()) nodes_.push_back(&node);
  link_a_.reserve(model.links().size());
  for (const ModelLink& l : model.links()) link_a_.push_back(id_of(l.a));
}

const RoutingIndex& NetworkModel::routing_index() const {
  routing_cache_.lock();
  if (!routing_cache_.index || routing_cache_.version != structure_version_) {
    routing_cache_.index = std::make_shared<RoutingIndex>(*this);
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
