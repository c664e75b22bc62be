#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

namespace mltcp::tcp {

/// Set of segment sequence numbers stored as disjoint half-open intervals
/// [start, end). This is the SACK-scoreboard representation: a window's
/// worth of SACKed segments collapses to a handful of intervals, so every
/// lookup is O(log k) in the number of holes instead of O(window) in
/// segments — the difference between per-ACK work that is constant and work
/// that rescans the whole window (the old std::set-of-seqs bookkeeping).
///
/// The intervals live in one vector sorted by start, so inserts and erases
/// shift at most the handful of intervals above them and reuse the
/// vector's storage: once a connection has seen its working number of
/// holes, loss recovery (Karn marks, SACK blocks, out-of-order runs)
/// allocates nothing.
class IntervalSet {
 public:
  using Interval = std::pair<std::int64_t, std::int64_t>;  ///< [start, end)

  /// Adds [start, end), merging with any overlapping or adjacent intervals.
  void insert(std::int64_t start, std::int64_t end) {
    if (start >= end) return;
    // The intervals [first, last) merge with the new range: the one before
    // the first start above `start` if it reaches `start`, then every one
    // starting at or before `end`.
    auto first = starts_after(v_, start);
    if (first != v_.begin()) {
      const auto prev = std::prev(first);
      if (prev->second >= start) {  // overlaps or abuts on the left
        if (prev->second >= end) return;
        start = prev->first;
        first = prev;
      }
    }
    auto last = first;
    while (last != v_.end() && last->first <= end) ++last;
    if (first == last) {
      v_.insert(first, Interval{start, end});
      return;
    }
    *first = Interval{start, std::max(end, std::prev(last)->second)};
    v_.erase(std::next(first), last);
  }

  /// Removes [start, end) from the set, splitting intervals as needed.
  void erase(std::int64_t start, std::int64_t end) {
    if (start >= end) return;
    // [lo, hi): the intervals that intersect [start, end).
    const auto lo = std::partition_point(
        v_.begin(), v_.end(),
        [&](const Interval& i) { return i.second <= start; });
    const auto hi = std::partition_point(
        lo, v_.end(), [&](const Interval& i) { return i.first < end; });
    if (lo == hi) return;
    // What survives: a left remainder of the first, a right one of the last.
    Interval keep[2];
    std::ptrdiff_t kept = 0;
    if (lo->first < start) keep[kept++] = Interval{lo->first, start};
    if (std::prev(hi)->second > end) {
      keep[kept++] = Interval{end, std::prev(hi)->second};
    }
    if (kept > hi - lo) {  // The erased range was strictly inside one.
      *lo = keep[0];
      v_.insert(std::next(lo), keep[1]);
      return;
    }
    std::copy(keep, keep + kept, lo);
    v_.erase(lo + kept, hi);
  }

  /// Drops all coverage below `bound` (cumulative-ACK pruning).
  void erase_below(std::int64_t bound) {
    const auto first_kept =
        std::partition_point(v_.begin(), v_.end(), [&](const Interval& i) {
          return i.second <= bound;
        });
    v_.erase(v_.begin(), first_kept);
    if (!v_.empty() && v_.front().first < bound) v_.front().first = bound;
  }

  bool contains(std::int64_t s) const {
    const auto it = starts_after(v_, s);
    return it != v_.begin() && std::prev(it)->second > s;
  }

  /// True if any covered value lies in [start, end).
  bool overlaps(std::int64_t start, std::int64_t end) const {
    if (start >= end) return false;
    const auto it = starts_after(v_, start);
    if (it != v_.begin() && std::prev(it)->second > start) return true;
    return it != v_.end() && it->first < end;
  }

  /// Lowest value in [from, to) that is NOT covered; `to` if all covered.
  std::int64_t first_missing(std::int64_t from, std::int64_t to) const {
    auto it = starts_after(v_, from);
    if (it != v_.begin() && std::prev(it)->second > from) {
      from = std::prev(it)->second;  // `from` is covered; skip its interval
    }
    while (from < to && it != v_.end() && it->first == from) {
      from = it->second;
      ++it;
    }
    return from < to ? from : to;
  }

  /// One past the highest covered value; 0 when empty.
  std::int64_t upper_bound_value() const {
    return v_.empty() ? 0 : v_.back().second;
  }

  bool empty() const { return v_.empty(); }
  void clear() { v_.clear(); }
  std::size_t interval_count() const { return v_.size(); }

  /// Total number of covered sequence numbers.
  std::int64_t covered_count() const {
    std::int64_t n = 0;
    for (const auto& [s, e] : v_) n += e - s;
    return n;
  }

  /// Disjoint, sorted intervals for iteration.
  const std::vector<Interval>& intervals() const { return v_; }

 private:
  /// The first interval that starts after `s` (const or not, as `v` is).
  template <typename Vec>
  static auto starts_after(Vec& v, std::int64_t s) -> decltype(v.begin()) {
    return std::upper_bound(
        v.begin(), v.end(), s,
        [](std::int64_t x, const Interval& i) { return x < i.first; });
  }

  std::vector<Interval> v_;  ///< Disjoint, non-adjacent, sorted by start.
};

}  // namespace mltcp::tcp
