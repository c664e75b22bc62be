#pragma once

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace mltcp::pdes {

/// Wakeup primitive for a blocked shard worker (threaded mode): producers
/// bump the version and notify; the consumer re-checks its progress
/// condition against the version it last observed, so a notification
/// between "observe" and "wait" is never lost. In cooperative mode nothing
/// ever waits and the version bump is the only cost.
class ShardSignal {
 public:
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  void notify() {
    version_.fetch_add(1, std::memory_order_seq_cst);
    // Fast path: nobody parked, so the version bump alone suffices — this
    // is every notify in cooperative mode and the common case in threaded
    // mode (notifies vastly outnumber waits). seq_cst on both the bump and
    // the waiter count pairs with wait(): in the single total order, either
    // this bump precedes the waiter's version check (it won't sleep) or the
    // waiter's count increment precedes this load (we fall through and
    // notify).
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;
    // Pairing the notify with the mutex closes the classic missed-wakeup
    // window: a waiter past its predicate check but not yet parked holds
    // the lock, so this acquisition orders the notify after the park.
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_all();
  }

  /// Blocks until the version differs from `seen`.
  void wait(std::uint64_t seen) {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] {
        return version_.load(std::memory_order_acquire) != seen;
      });
    }
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }

 private:
  std::atomic<std::uint64_t> version_{0};
  std::atomic<std::uint32_t> waiters_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// One timestamped packet delivery crossing a shard boundary. Per channel,
/// `when` is strictly increasing (each packet's serialization on the source
/// link takes positive time), so a channel's stream needs no reordering —
/// only merging across channels and against the local queue, both by the
/// canonical (when, key) order.
struct Delivery {
  sim::SimTime when = 0;  ///< Delivery time at the destination node.
  /// The link's canonical tiebreak key (Link::delivery_key) — the exact
  /// key the delivery event would carry in the serial queue, making the
  /// import merge reproduce the serial total order at equal timestamps.
  std::uint64_t key = 0;
  net::Node* dst = nullptr;
  net::Packet pkt{};
};

/// SPSC channel for one cut link: the source shard pushes deliveries and
/// advances the destination shard's lower bound on timestamp (LBTS — the
/// null-message payload of conservative synchronization); the destination
/// shard drains them into the channel's import buffer and executes them
/// from there. Exactly one producer (the shard executing the link's source
/// node) and one consumer exist by construction, but the inbox is a plain
/// mutex-protected vector — simple to reason about under TSan, and
/// uncontended in cooperative mode.
///
/// Installed on the link as its DeliverySink: Link::start_transmission
/// hands each packet here when its serialization starts, and a cut during
/// that serialization retracts it.
class CrossShardChannel final : public net::DeliverySink {
 public:
  explicit CrossShardChannel(net::Link* link) : link_(link) {}

  net::Link* link() const { return link_; }

  // -- Producer side (source shard) ----------------------------------------

  /// net::DeliverySink: called from Link::start_transmission with the
  /// delivery timestamp (serialization end + propagation delay) and the
  /// link's canonical tiebreak key.
  void deliver(sim::SimTime when, std::uint64_t key, net::Node* dst,
               const net::Packet& pkt) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inbox_.push_back(Delivery{when, key, dst, pkt});
      if (inbox_.size() > max_backlog_) max_backlog_ = inbox_.size();
    }
    // A push IS an LBTS advance (per-channel streams are time-monotone), so
    // fold it in rather than waiting for the next null message.
    advance(when);
  }

  /// net::DeliverySink: the newest delivery sits unexecuted at the back of
  /// the inbox or, once drained, of the import buffer.
  void retract([[maybe_unused]] std::uint64_t key) override {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Delivery>& newest = inbox_.empty() ? imports_ : inbox_;
    assert(newest.size() > (inbox_.empty() ? head_ : 0) &&
           newest.back().key == key && "retract of a delivery not held");
    newest.pop_back();
  }

  /// Null message: promises the consumer that every future delivery on this
  /// channel has `when >= lbts`, so the consumer executes strictly below its
  /// inbound LBTS minimum. Monotone; a no-op advance neither counts nor
  /// notifies.
  void advance(sim::SimTime lbts) {
    sim::SimTime prev = lbts_.load(std::memory_order_relaxed);
    while (prev < lbts) {
      if (lbts_.compare_exchange_weak(prev, lbts,
                                      std::memory_order_release,
                                      std::memory_order_relaxed)) {
        null_updates_.fetch_add(1, std::memory_order_relaxed);
        if (consumer_signal_ != nullptr) consumer_signal_->notify();
        return;
      }
    }
  }

  // -- Consumer side (destination shard) -----------------------------------

  /// Appends everything pushed since the last drain to the import buffer,
  /// in push (= time) order. Returns the number of deliveries moved.
  std::size_t drain() {
    // Drop the executed prefix on every drain, not only once the buffer is
    // empty: a cut link hands each delivery over its serialization plus
    // propagation time before it is due, so the buffer is seldom empty and
    // would otherwise grow with every delivery of the run.
    imports_.erase(imports_.begin(),
                   imports_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t n = inbox_.size();
    for (Delivery& d : inbox_) imports_.push_back(std::move(d));
    inbox_.clear();
    return n;
  }

  /// The drained deliveries not yet executed, oldest first.
  bool empty() const { return head_ == imports_.size(); }
  const Delivery& front() const { return imports_[head_]; }
  void pop() { ++head_; }

  sim::SimTime lbts() const { return lbts_.load(std::memory_order_acquire); }

  /// Barrier-only reset: overwrites the LBTS (possibly downward) after
  /// out-of-band event injection — a scenario apply can schedule sends
  /// earlier than the frontier the producer shard had already promised
  /// past. Only sound while every shard is parked at a global barrier, with
  /// a fresh bound that really is below all future deliveries.
  void force_lbts(sim::SimTime lbts) {
    lbts_.store(lbts, std::memory_order_release);
  }

  void set_consumer_signal(ShardSignal* signal) { consumer_signal_ = signal; }

  // -- Telemetry ------------------------------------------------------------

  std::uint64_t null_updates() const {
    return null_updates_.load(std::memory_order_relaxed);
  }
  std::size_t max_backlog() const { return max_backlog_; }

 private:
  net::Link* link_;

  std::mutex mutex_;
  std::vector<Delivery> inbox_;   ///< Guarded by mutex_.
  std::size_t max_backlog_ = 0;   ///< Guarded by mutex_.
  /// Consumer-owned: drained deliveries, executed from `head_` on.
  std::vector<Delivery> imports_;
  std::size_t head_ = 0;
  std::atomic<sim::SimTime> lbts_{0};
  std::atomic<std::uint64_t> null_updates_{0};
  ShardSignal* consumer_signal_ = nullptr;
};

}  // namespace mltcp::pdes
