// BufferPool — recycles Bytes capacity across the seal → send → deliver →
// unseal cycle.
//
// A simulated broadcast round moves ~n² messages, and before pooling every
// hop allocated a fresh vector: seal allocates the ciphertext, the network
// event owns it until delivery, open allocates the plaintext, and all of
// them hit the allocator again next round. The pool keeps returned buffers
// on a thread-local free list so steady-state rounds run allocation-free:
// `acquire` pops a buffer and re-sizes it (value-initialized, so recycled
// capacity can never leak a previous message's bytes — the poisoning test
// in tests/test_event_engine.cpp pins this), `release` pushes it back.
//
// The pool is thread-local (the simulator is single-threaded per run, and
// parallel sweep workers each get their own pool, matching the per-thread
// MetricsRegistry::current() contract). Only the deterministic totals
// (acquires/releases) are published as registry metrics — hit/miss splits
// depend on pool warmth left over from earlier runs in the same thread and
// would break byte-identical same-seed metric snapshots, so those stay
// process-local in Stats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.hpp"

namespace sgxp2p::obs {

class BufferPool {
 public:
  /// The calling thread's pool.
  static BufferPool& local();

  /// Returns a buffer of exactly `size` zero-filled bytes (same contents as
  /// a freshly constructed `Bytes(size)`), reusing pooled capacity.
  [[nodiscard]] Bytes acquire(std::size_t size);

  /// Returns an empty buffer with capacity ≥ `capacity` reserved. For
  /// callers that assign/append the full contents themselves and don't want
  /// to pay for the zero-fill.
  [[nodiscard]] Bytes acquire_empty(std::size_t capacity);

  /// Returns a buffer to the free list. Oversized or surplus buffers are
  /// dropped so the pool's footprint stays bounded.
  void release(Bytes buf);

  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t releases = 0;
    std::uint64_t hits = 0;     // acquire served from the free list
    std::uint64_t misses = 0;   // acquire fell through to the allocator
    std::uint64_t dropped = 0;  // release discarded (full / oversized)
    std::uint64_t recycled_bytes = 0;  // capacity handed back out via hits
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  [[nodiscard]] std::size_t free_buffers() const { return free_.size(); }

  /// Drops all pooled buffers and zeroes the stats. Benches call this
  /// between measured configurations so every run starts cold.
  void clear();

  /// Free-list depth cap: beyond this, released buffers are freed.
  static constexpr std::size_t kMaxFree = 4096;
  /// Buffers with more capacity than this are never pooled (checkpoint and
  /// attestation blobs would pin large allocations forever).
  static constexpr std::size_t kMaxPooledCapacity = std::size_t{1} << 20;

 private:
  Bytes take(std::size_t want);

  std::vector<Bytes> free_;
  Stats stats_;
};

}  // namespace sgxp2p::obs
