#include "obs/pool.hpp"

#include <utility>

#include "obs/metrics.hpp"

namespace sgxp2p::obs {

namespace {
// Deterministic totals only — see the header note on hit/miss warmth.
struct PoolCounters {
  Counter* acquires = nullptr;
  Counter* releases = nullptr;

  static PoolCounters& get() {
    thread_local PoolCounters counters;
    thread_local std::uint64_t bound_registry_id = 0;
    MetricsRegistry& reg = MetricsRegistry::current();
    if (reg.id() != bound_registry_id) {
      counters.acquires = &reg.counter("sim.pool_acquires");
      counters.releases = &reg.counter("sim.pool_releases");
      bound_registry_id = reg.id();
    }
    return counters;
  }
};
}  // namespace

BufferPool& BufferPool::local() {
  thread_local BufferPool pool;
  return pool;
}

Bytes BufferPool::take(std::size_t want) {
  ++stats_.acquires;
  PoolCounters::get().acquires->inc();
  if (free_.empty()) {
    ++stats_.misses;
    Bytes fresh;
    fresh.reserve(want);
    return fresh;
  }
  ++stats_.hits;
  Bytes buf = std::move(free_.back());
  free_.pop_back();
  stats_.recycled_bytes += buf.capacity();
  buf.clear();
  if (buf.capacity() < want) buf.reserve(want);
  return buf;
}

Bytes BufferPool::acquire(std::size_t size) {
  Bytes buf = take(size);
  // resize() value-initializes the new tail, so a recycled buffer comes back
  // bitwise identical to a fresh Bytes(size) — never the previous contents.
  buf.resize(size);
  return buf;
}

Bytes BufferPool::acquire_empty(std::size_t capacity) {
  return take(capacity);
}

void BufferPool::release(Bytes buf) {
  ++stats_.releases;
  PoolCounters::get().releases->inc();
  if (buf.capacity() == 0 ||
      buf.capacity() > kMaxPooledCapacity || free_.size() >= kMaxFree) {
    ++stats_.dropped;
    return;
  }
  free_.push_back(std::move(buf));
}

void BufferPool::clear() {
  free_.clear();
  free_.shrink_to_fit();
  stats_ = Stats{};
}

}  // namespace sgxp2p::obs
