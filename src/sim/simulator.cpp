#include "sim/simulator.hpp"

#include <cassert>

namespace mltcp::sim {

namespace detail {
// Null until a ShardGuard binds: threads that never bound a shard resolve
// to the root context of whichever Simulator they call into.
constinit thread_local const Simulator* tls_bound_sim = nullptr;
constinit thread_local void* tls_bound_ctx = nullptr;
}  // namespace detail

void Simulator::run() {
  ShardContext& c = ctx();
  stopped_ = false;
  while (!stopped_ && !c.queue.empty()) {
    // pop_and_run_before advances the clock before invoking the callback, so
    // the clock reads the event's timestamp while the event executes.
    c.queue.pop_and_run_before(kTimeInfinity, &c.now);
    ++c.executed;
  }
}

void Simulator::run_until(SimTime deadline) {
  ShardContext& c = ctx();
  stopped_ = false;
  while (!stopped_ && !c.queue.empty()) {
    if (!c.queue.pop_and_run_before(deadline, &c.now)) break;
    ++c.executed;
  }
  if (!stopped_ && c.now < deadline) c.now = deadline;
}

void Simulator::configure_shards(int n) {
  assert(n >= 1);
  assert(extra_shards_.empty() && "configure_shards must be called once");
  extra_shards_.reserve(static_cast<std::size_t>(n - 1));
  for (int i = 1; i < n; ++i) {
    auto c = std::make_unique<ShardContext>();
    c->now = root_.now;  // shards share the root's starting clock
    extra_shards_.push_back(std::move(c));
  }
}

std::size_t Simulator::pending_events() const {
  std::size_t total = root_.queue.size();
  for (const auto& c : extra_shards_) total += c->queue.size();
  return total;
}

std::uint64_t Simulator::events_executed() const {
  std::uint64_t total = root_.executed;
  for (const auto& c : extra_shards_) total += c->executed;
  return total;
}

}  // namespace mltcp::sim
