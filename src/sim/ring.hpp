#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace mltcp::sim {

/// Power-of-two ring buffer: the one FIFO behind the packet queues
/// (net::PacketRing) and the per-channel message queues of both backends.
/// Head/tail are monotonic counters masked into the buffer, so wraparound
/// is a single AND. An empty ring owns no storage; capacity grows 1, 2,
/// 4, ... (relinearising the contents) and never shrinks, so a FIFO that
/// has seen its working depth runs allocation-free, and one that holds a
/// single element at a time costs a single slot.
///
/// Popping a `T` that is not trivially destructible resets its slot to
/// `T{}`, so whatever the element owns (a completion's captures) is
/// released at the pop rather than when the slot is next overwritten. A
/// trivially destructible pop (a packet) is one increment.
template <typename T>
class Ring {
 public:
  bool empty() const { return head_ == tail_; }
  std::size_t size() const { return static_cast<std::size_t>(tail_ - head_); }
  std::size_t capacity() const { return buf_.size(); }

  /// Appends `v` and returns the stored element, so a caller can mutate it
  /// in place (an ECN queue CE-marks on enqueue) instead of copying twice.
  /// `v` must not refer to an element of this ring.
  template <typename U>
  T& push_back(U&& v) {
    if (size() == buf_.size()) grow();
    T& slot = buf_[tail_++ & mask_];
    slot = std::forward<U>(v);
    return slot;
  }

  /// Oldest element. Precondition: !empty().
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }

  /// The i-th element from the head. Precondition: i < size().
  T& operator[](std::size_t i) {
    assert(i < size());
    return buf_[(head_ + i) & mask_];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size());
    return buf_[(head_ + i) & mask_];
  }

  /// Drops the oldest element. Precondition: !empty().
  void pop_front() {
    assert(!empty());
    if constexpr (!std::is_trivially_destructible_v<T>) {
      buf_[head_ & mask_] = T{};
    }
    ++head_;
  }

 private:
  void grow() {
    const std::size_t n = size();
    std::vector<T> next(n == 0 ? 1 : 2 * n);
    for (std::size_t i = 0; i < n; ++i) next[i] = std::move((*this)[i]);
    buf_ = std::move(next);
    mask_ = buf_.size() - 1;
    head_ = 0;
    tail_ = n;
  }

  std::vector<T> buf_;
  std::uint64_t mask_ = 0;
  std::uint64_t head_ = 0;  ///< Monotonic; buffer index is head_ & mask_.
  std::uint64_t tail_ = 0;
};

}  // namespace mltcp::sim
