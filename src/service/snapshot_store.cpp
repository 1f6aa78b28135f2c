#include "service/snapshot_store.hpp"

#include <utility>

namespace remos::service {

SnapshotStore::Ptr SnapshotStore::publish(collector::NetworkModel model,
                                          Seconds taken_at) {
  auto snap = std::make_shared<ModelSnapshot>();
  snap->taken_at = taken_at;
  snap->model = std::move(model);
  // Publishers are serialized (one poller), so load-then-store is
  // race-free for the version counter; readers see version() lag, never
  // lead, the snapshot it describes.
  snap->version = version_.load(std::memory_order_acquire) + 1;

  Ptr retired;  // destroyed after unlock: no model dtor under the lock
  lock();
  retired = std::move(previous_);
  previous_ = std::move(current_);
  current_ = snap;
  unlock();
  version_.store(snap->version, std::memory_order_release);
  return snap;
}

SnapshotStore::Ptr SnapshotStore::current() const {
  lock();
  Ptr p = current_;
  unlock();
  return p;
}

SnapshotStore::Ptr SnapshotStore::previous() const {
  lock();
  Ptr p = previous_;
  unlock();
  return p;
}

}  // namespace remos::service
