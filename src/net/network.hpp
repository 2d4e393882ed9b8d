// Simulated synchronous P2P network.
//
// Models the paper's assumptions S3/S5: every pair of peers is connected;
// the TCP/IP substrate delivers within a known bound Δ. Per-ordered-pair
// FIFO is preserved (delay = base + deterministic jitter, never exceeding
// Δ, never reordering). Every accepted send is metered — the benchmark
// traffic numbers (Figs. 3a–3c) read the meter directly, so "communication
// complexity" is measured on the wire, not estimated.
//
// Deliveries ride the simulator's typed event lane (sim::Delivery) instead
// of per-message closures: one registered dispatcher routes every arrival
// to the receiver's sink. Sinks come in two flavors — owned (the Host path:
// the receiver takes the buffer) and view (plaintext baselines: the
// receiver only reads). A payload sent shared (send_shared, multicast) is
// one refcounted buffer for every recipient: a view sink reads it, an owned
// sink reads it through its optional shared sink, or else gets a copy.
//
// An optional shared-link bandwidth model reproduces the paper's testbed
// artifact (40 machines behind one 128 MB/s link): when enabled, messages
// additionally queue on a global serialization resource.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "net/simulator.hpp"
#include "obs/metrics.hpp"

namespace sgxp2p::sim {

struct NetworkConfig {
  SimDuration base_delay = milliseconds(200);   // floor latency
  SimDuration max_jitter = milliseconds(300);   // deterministic, per message
  std::uint64_t seed = 1;                       // jitter stream
  // Bytes/second through a shared bottleneck; 0 = infinite (default).
  std::uint64_t shared_bandwidth = 0;

  /// Upper bound on one-way delivery: the Δ of assumption S3 must be ≥ this.
  [[nodiscard]] SimDuration worst_delay() const {
    return base_delay + max_jitter;
  }
};

/// Wire traffic counters, global and per message-class, with an optional
/// time-bucketed byte timeline (used to show per-round traffic profiles).
class TrafficMeter {
 public:
  /// `now` is mandatory: a defaulted timestamp used to silently fold
  /// un-timestamped calls into bucket 0 and skew the timeline.
  void record(std::size_t bytes, SimTime now) {
    ++messages_;
    bytes_ += bytes;
    if (bucket_ms_ > 0) {
      auto bucket = static_cast<std::size_t>(now / bucket_ms_);
      if (bucket >= timeline_.size()) {
        // Grow capacity geometrically (amortized O(1) per message over long
        // timelines) but keep size() exact — callers read timeline().size()
        // as "buckets seen so far".
        if (bucket >= timeline_.capacity()) {
          timeline_.reserve(std::max(bucket + 1, 2 * timeline_.capacity()));
        }
        timeline_.resize(bucket + 1, 0);
      }
      timeline_[bucket] += bytes;
    }
  }
  void reset() {
    messages_ = 0;
    bytes_ = 0;
    timeline_.clear();
  }
  /// Enables the timeline with `bucket_ms`-wide buckets (e.g. the round
  /// time, so each entry is one round's bytes).
  void enable_timeline(SimDuration bucket_ms) { bucket_ms_ = bucket_ms; }
  [[nodiscard]] const std::vector<std::uint64_t>& timeline() const {
    return timeline_;
  }

  [[nodiscard]] std::uint64_t messages() const { return messages_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] double megabytes() const {
    return static_cast<double>(bytes_) / (1024.0 * 1024.0);
  }

 private:
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  SimDuration bucket_ms_ = 0;
  std::vector<std::uint64_t> timeline_;
};

class Network {
 public:
  using DeliverFn = std::function<void(NodeId from, Bytes blob)>;
  using DeliverViewFn = std::function<void(NodeId from, ByteView blob)>;

  /// Instruments net.* on `registry` (defaults to the thread's current
  /// registry, which is the global one unless a run rebound it).
  Network(Simulator& simulator, NetworkConfig config,
          obs::MetricsRegistry& registry = obs::MetricsRegistry::current());

  /// Registers the inbound sink for `id` (the node's Host): the sink takes
  /// ownership of each delivered buffer. A payload sent shared goes to
  /// `shared_sink` as a view of the one buffer all its recipients read;
  /// without a shared sink, `sink` gets a copy of it.
  void attach(NodeId id, DeliverFn sink, DeliverViewFn shared_sink = nullptr);

  /// Registers a read-only sink for `id`: the network keeps buffer
  /// ownership (recycling it through the BufferPool) and multicast
  /// deliveries alias one shared payload instead of copying per receiver.
  void attach_view(NodeId id, DeliverViewFn sink);

  /// Removes a node: queued deliveries to it are dropped on arrival and
  /// future sends from/to it are ignored. Per-pair FIFO state involving the
  /// node is purged (long churn episodes must not grow it without bound).
  void detach(NodeId id);
  [[nodiscard]] bool attached(NodeId id) const;

  /// Sends `blob` from → to with delay ≤ worst_delay(). Metered.
  void send(NodeId from, NodeId to, Bytes blob);

  /// send() of an immutable buffer that other sends may share: the same
  /// checks, drops, metering and trace events, without a copy.
  void send_shared(NodeId from, NodeId to, std::shared_ptr<const Bytes> blob);

  /// send_shared() of one payload from → each of `group` in order (self and
  /// detached ids skipped).
  void multicast(NodeId from, const std::vector<NodeId>& group,
                 Bytes payload);

  // ----- partition injection (adversarial schedule hooks, src/fuzz/) -----

  /// Cuts (or heals) the undirected link a ↔ b. While cut, sends between the
  /// pair are dropped (counted under net.dropped) instead of scheduled — the
  /// adversary severed the wire, so nothing traverses it. Messages already
  /// in flight still arrive (the cut happens at the sender's NIC). Cuts are
  /// refcounted so overlapping partition windows compose: a link is live
  /// again only when every cut that covered it has been healed.
  void block_link(NodeId a, NodeId b);
  void unblock_link(NodeId a, NodeId b);
  [[nodiscard]] bool link_blocked(NodeId a, NodeId b) const;
  /// Currently cut undirected pairs (partition bookkeeping + tests).
  [[nodiscard]] std::size_t blocked_links() const { return blocked_.size(); }

  [[nodiscard]] TrafficMeter& meter() { return meter_; }
  [[nodiscard]] Simulator& simulator() { return *simulator_; }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }
  /// Live per-ordered-pair FIFO entries (detach-leak regression hook).
  [[nodiscard]] std::size_t fifo_entries() const;
  /// Allocated per-pair FIFO slots (dense + sparse + far map). Grows with
  /// the pairs actually communicating, NOT with n² — the memory-
  /// proportionality regression test reads this through the net.* gauges.
  [[nodiscard]] std::size_t fifo_pair_slots() const;
  /// Allocated sink-table slots (≈ highest attached id + far entries).
  [[nodiscard]] std::size_t sink_slots() const;
  /// Stamps net.fifo_pair_slots / net.sink_slots gauges on the registry
  /// this network instruments.
  void publish_capacity_gauges();

 private:
  struct Sink {
    DeliverFn owned;
    DeliverViewFn view;
    DeliverViewFn shared;  // shared payloads for an owned sink

    [[nodiscard]] bool attached() const {
      return static_cast<bool>(owned) || static_cast<bool>(view);
    }
  };

  struct Routed {
    SimTime arrival = 0;
    std::uint64_t span = 0;  // span of the `net send` trace event (0 untraced)
  };
  /// Meters the send and computes its arrival time (jitter, bandwidth,
  /// per-pair FIFO, pending enclave-transition charge).
  Routed route(NodeId from, NodeId to, std::size_t bytes, SimTime now);
  void on_delivery(Delivery&& d);
  /// Next admissible delivery time for the ordered pair from → to (0 = no
  /// earlier traffic, which constrains nothing since SimTime starts at 0).
  SimTime& fifo_slot(NodeId from, NodeId to);
  /// The sink registered for `id`, or nullptr. Dense ids index a flat
  /// table (same rationale as the FIFO matrix: one lookup per delivery and
  /// two per send on the hot path).
  [[nodiscard]] const Sink* find_sink(NodeId id) const;
  Sink& sink_slot(NodeId id);

  /// FIFO guarantee: next admissible delivery time per ordered pair,
  /// size-adaptive per sender row. A row starts as a sorted sparse vector
  /// (binary-searched — a 100k-node sharded topology has ~10² destinations
  /// per sender, so rows stay tiny and total state is O(live pairs), never
  /// O(n²) up front). A row that accumulates kFifoPromoteAt small-id
  /// destinations is promoted to a dense prefix array, restoring the O(1)
  /// hot path the clique benches rely on; destinations ≥ kDenseColumnCap
  /// always stay in the sparse tail.
  struct FifoRow {
    std::vector<std::pair<NodeId, SimTime>> sparse;  // sorted by id
    std::vector<SimTime> dense;  // promoted columns [0, dense.size())
  };

  Simulator* simulator_;
  NetworkConfig config_;
  obs::MetricsRegistry* registry_;
  Rng jitter_rng_;
  TrafficMeter meter_;
  std::uint32_t handler_;
  // Registry handles (net.*). The meter stays per-network (tests compare
  // meters of separate testbeds); the registry aggregates process-wide.
  obs::Counter& sends_ctr_;
  obs::Counter& bytes_ctr_;
  obs::Counter& delivered_ctr_;
  obs::Counter& delivered_bytes_ctr_;
  obs::Counter& dropped_ctr_;
  obs::Histogram& size_hist_;
  obs::Histogram& delay_hist_;
  // Ids below kMaxTableIds index flat tables (lazily grown to the highest
  // id seen — O(n), not O(n²)); larger/sparser ids fall back to the maps.
  static constexpr NodeId kMaxTableIds = 1u << 20;
  static constexpr NodeId kDenseColumnCap = 4096;
  static constexpr std::size_t kFifoPromoteAt = 48;
  std::vector<Sink> sinks_dense_;               // ids < kMaxTableIds
  std::unordered_map<NodeId, Sink> sinks_far_;  // sparse/large ids
  std::vector<FifoRow> fifo_rows_;              // [from], adaptive per row
  std::unordered_map<std::uint64_t, SimTime> fifo_far_;
  // Shared-bandwidth model: time at which the bottleneck frees up.
  SimTime link_free_at_ = 0;
  // Partitioned (undirected) pairs → number of live cuts covering them.
  // Ordered map: partition state must never perturb iteration determinism.
  std::map<std::uint64_t, std::uint32_t> blocked_;
};

}  // namespace sgxp2p::sim
