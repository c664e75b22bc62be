#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mltcp::sim {

/// Implicit 4-ary min-heap of small entries, each naming a dense id, plus
/// the id -> position table that makes every queued entry addressable:
/// push() inserts an entry or re-keys the queued entry of its id in place,
/// and remove() takes any entry out. Both are O(log4 n) with no hashing,
/// no tombstones and no per-operation allocation. The event queue keeps
/// its (when, seq, slot) entries here, and the flow-level backend its
/// drain index of (instant, channel ordinal) entries.
///
/// Entry must be cheap to copy, carry a `std::uint32_t id` member and
/// define a strict total order `operator<`. Write the order without
/// short-circuiting where possible: heap keys are effectively random, so a
/// mispredicted branch per comparison would dominate sift cost. An id is
/// queued at most once. The position table grows to the largest id pushed
/// and never shrinks, so ids drawn from a recycled range stop allocating
/// once the range is reached.
template <typename Entry>
class IndexedMinHeap4 {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  bool contains(std::uint32_t id) const {
    return id < pos_.size() && pos_[id] != kAbsent;
  }

  /// The minimum entry. Precondition: !empty().
  const Entry& top() const {
    assert(!heap_.empty());
    return heap_.front();
  }

  /// Inserts `e`, or replaces the queued entry of `e.id` with `e` in place.
  void push(const Entry& e) {
    if (e.id >= pos_.size()) pos_.resize(std::size_t{e.id} + 1, kAbsent);
    const std::uint32_t i = pos_[e.id];
    if (i == kAbsent) {
      heap_.push_back(e);
      sift_up(heap_.size() - 1, e);
    } else if (e < heap_[i]) {
      sift_up(i, e);
    } else {
      sift_down(i, e);
    }
  }

  /// Removes the minimum entry. Precondition: !empty(). Not written as
  /// remove(top().id): that form measured slower on pop-heavy runs.
  void pop() {
    assert(!heap_.empty());
    pos_[heap_.front().id] = kAbsent;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
  }

  /// Removes the queued entry of `id`; no-op if there is none.
  void remove(std::uint32_t id) {
    if (!contains(id)) return;
    const std::size_t i = pos_[id];
    pos_[id] = kAbsent;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;  // it was the back entry
    // The hole's filler comes from the bottom, so it may belong above the
    // hole as well as below it.
    if (i > 0 && last < heap_[(i - 1) >> 2]) {
      sift_up(i, last);
    } else {
      sift_down(i, last);
    }
  }

 private:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
  /// Positions are uint32, so the heap holds under 2^32 entries: at most
  /// 17 levels of four-way fan-out.
  static constexpr int kMaxDepth = 17;

  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    pos_[e.id] = static_cast<std::uint32_t>(i);
  }

  /// Index of the smallest of the children starting at `first` (heap size
  /// `n`). A full group of four is a fixed tournament of three compares,
  /// each a conditional move: no data-dependent branches.
  std::size_t min_child(std::size_t first, std::size_t n) const {
    if (first + 4 <= n) {
      const std::size_t a =
          heap_[first + 1] < heap_[first] ? first + 1 : first;
      const std::size_t b =
          heap_[first + 3] < heap_[first + 2] ? first + 3 : first + 2;
      return heap_[b] < heap_[a] ? b : a;
    }
    std::size_t best = first;
    for (std::size_t c = first + 1; c < n; ++c) {
      best = heap_[c] < heap_[best] ? c : best;
    }
    return best;
  }

  /// Fills the hole at `i` with `e`, which belongs at or above it.
  void sift_up(std::size_t i, const Entry& e) {
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!(e < heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
  }

  /// Fills the hole at `i` with `e`, which belongs at or below it, bottom-up
  /// (Wegener): descend the min-child path to a leaf without comparing
  /// against `e`, then climb back to its insertion point. A filler taken
  /// from the back almost always belongs near the bottom, so comparing on
  /// the way down would buy nothing but branch misses.
  void sift_down(std::size_t i, const Entry& e) {
    const std::size_t n = heap_.size();
    std::size_t path[kMaxDepth];
    int depth = 0;
    path[0] = i;
    for (std::size_t first = 4 * i + 1; first < n; first = 4 * i + 1) {
      i = min_child(first, n);
      path[++depth] = i;
    }
    while (depth > 0 && !(heap_[path[depth]] < e)) --depth;
    for (int d = 0; d < depth; ++d) place(path[d], heap_[path[d + 1]]);
    place(path[depth], e);
  }

  std::vector<Entry> heap_;
  std::vector<std::uint32_t> pos_;  ///< Position of each id; kAbsent if none.
};

}  // namespace mltcp::sim
