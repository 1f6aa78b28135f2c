// Fixed-capacity ring buffer for measurement histories.
//
// Collectors retain a bounded window of samples per link; old samples are
// evicted in FIFO order.  Iteration order is oldest-to-newest.  Storage
// grows geometrically as elements arrive, never past the capacity, so a
// model of thousands of links pays for the samples it holds, not for
// every ring's full capacity up front.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/error.hpp"

namespace remos {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) throw InvalidArgument("RingBuffer: zero capacity");
  }

  void push(T value) {
    if (items_.size() < capacity_) {
      if (items_.size() == items_.capacity())
        items_.reserve(std::min(capacity_, 2 * items_.size() + 1));
      items_.push_back(std::move(value));
    } else {
      items_[head_] = std::move(value);
      head_ = (head_ + 1) % capacity_;
    }
  }

  std::size_t size() const { return items_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return items_.empty(); }

  /// i-th element, 0 = oldest.
  const T& operator[](std::size_t i) const {
    return items_[(head_ + i) % items_.size()];
  }

  const T& back() const { return (*this)[items_.size() - 1]; }
  const T& front() const { return (*this)[0]; }

  /// Snapshot in oldest-to-newest order.
  std::vector<T> to_vector() const {
    std::vector<T> out;
    out.reserve(items_.size());
    for (std::size_t i = 0; i < items_.size(); ++i) out.push_back((*this)[i]);
    return out;
  }

  void clear() {
    items_.clear();
    head_ = 0;
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of oldest element once full
  std::vector<T> items_;
};

}  // namespace remos
