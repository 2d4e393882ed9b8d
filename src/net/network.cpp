#include "net/network.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/log.hpp"
#include "obs/pool.hpp"
#include "obs/trace.hpp"

namespace sgxp2p::sim {

Network::Network(Simulator& simulator, NetworkConfig config,
                 obs::MetricsRegistry& registry)
    : simulator_(&simulator),
      config_(config),
      registry_(&registry),
      jitter_rng_(config.seed),
      handler_(simulator.add_delivery_handler(
          [this](Delivery&& d) { on_delivery(std::move(d)); })),
      sends_ctr_(registry.counter("net.sends")),
      bytes_ctr_(registry.counter("net.bytes")),
      delivered_ctr_(registry.counter("net.delivered")),
      delivered_bytes_ctr_(registry.counter("net.delivered_bytes")),
      dropped_ctr_(registry.counter("net.dropped")),
      size_hist_(registry.histogram(
          "net.msg_bytes", {32, 64, 128, 256, 512, 1024, 4096, 16384})),
      delay_hist_(registry.histogram(
          "net.delay_ms", {100, 200, 300, 400, 500, 750, 1000, 2000, 5000})) {}

Network::Sink& Network::sink_slot(NodeId id) {
  if (id < kMaxTableIds) {
    if (id >= sinks_dense_.size()) sinks_dense_.resize(id + 1);
    return sinks_dense_[id];
  }
  return sinks_far_[id];
}

const Network::Sink* Network::find_sink(NodeId id) const {
  if (id < kMaxTableIds) {
    if (id >= sinks_dense_.size() || !sinks_dense_[id].attached()) {
      return nullptr;
    }
    return &sinks_dense_[id];
  }
  auto it = sinks_far_.find(id);
  return it != sinks_far_.end() ? &it->second : nullptr;
}

void Network::attach(NodeId id, DeliverFn sink, DeliverViewFn shared_sink) {
  sink_slot(id) = Sink{std::move(sink), nullptr, std::move(shared_sink)};
}

void Network::attach_view(NodeId id, DeliverViewFn sink) {
  sink_slot(id) = Sink{nullptr, std::move(sink), nullptr};
}

namespace {
auto sparse_lower_bound(std::vector<std::pair<NodeId, SimTime>>& sparse,
                        NodeId to) {
  return std::lower_bound(
      sparse.begin(), sparse.end(), to,
      [](const auto& entry, NodeId id) { return entry.first < id; });
}
}  // namespace

void Network::detach(NodeId id) {
  if (id < sinks_dense_.size()) sinks_dense_[id] = Sink{};
  sinks_far_.erase(id);
  if (id < fifo_rows_.size()) fifo_rows_[id] = FifoRow{};
  for (auto& row : fifo_rows_) {
    if (id < row.dense.size()) row.dense[id] = 0;
    auto it = sparse_lower_bound(row.sparse, id);
    if (it != row.sparse.end() && it->first == id) row.sparse.erase(it);
  }
  std::erase_if(fifo_far_, [id](const auto& entry) {
    return static_cast<NodeId>(entry.first >> 32) == id ||
           static_cast<NodeId>(entry.first & 0xffffffffu) == id;
  });
}

SimTime& Network::fifo_slot(NodeId from, NodeId to) {
  if (from >= kMaxTableIds || to >= kMaxTableIds) {
    return fifo_far_[(static_cast<std::uint64_t>(from) << 32) |
                     static_cast<std::uint64_t>(to)];
  }
  if (from >= fifo_rows_.size()) fifo_rows_.resize(from + 1);
  FifoRow& row = fifo_rows_[from];
  if (to < row.dense.size()) return row.dense[to];
  if (!row.dense.empty() && to < kDenseColumnCap) {
    row.dense.resize(to + 1, 0);
    return row.dense[to];
  }
  auto it = sparse_lower_bound(row.sparse, to);
  if (it != row.sparse.end() && it->first == to) return it->second;
  it = row.sparse.insert(it, {to, 0});
  if (to < kDenseColumnCap) {
    // Promote once the row collects enough small-id destinations: a clique
    // sender touches every column and earns the O(1) array; a sharded
    // sender with ~10² destinations never pays for one.
    std::size_t small = 0;
    NodeId max_small = 0;
    for (const auto& [dest, when] : row.sparse) {
      if (dest < kDenseColumnCap) {
        ++small;
        max_small = dest;  // sorted: last small id is the max
      } else {
        break;
      }
    }
    if (small >= kFifoPromoteAt) {
      row.dense.assign(max_small + 1, 0);
      std::vector<std::pair<NodeId, SimTime>> far_tail;
      for (auto& [dest, when] : row.sparse) {
        if (dest < kDenseColumnCap) {
          row.dense[dest] = when;
        } else {
          far_tail.emplace_back(dest, when);
        }
      }
      row.sparse = std::move(far_tail);
      return row.dense[to];
    }
  }
  return it->second;
}

std::size_t Network::fifo_entries() const {
  std::size_t live = fifo_far_.size();
  for (const auto& row : fifo_rows_) {
    for (SimTime t : row.dense) live += t != 0 ? 1 : 0;
    for (const auto& [dest, when] : row.sparse) live += when != 0 ? 1 : 0;
  }
  return live;
}

std::size_t Network::fifo_pair_slots() const {
  std::size_t slots = fifo_far_.size();
  for (const auto& row : fifo_rows_) {
    slots += row.dense.size() + row.sparse.size();
  }
  return slots;
}

std::size_t Network::sink_slots() const {
  return sinks_dense_.size() + sinks_far_.size();
}

void Network::publish_capacity_gauges() {
  registry_->gauge("net.fifo_pair_slots")
      .set(static_cast<std::int64_t>(fifo_pair_slots()));
  registry_->gauge("net.sink_slots")
      .set(static_cast<std::int64_t>(sink_slots()));
}

bool Network::attached(NodeId id) const { return find_sink(id) != nullptr; }

namespace {
std::uint64_t pair_key(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint64_t>(b);
}
}  // namespace

void Network::block_link(NodeId a, NodeId b) {
  if (a == b) return;
  ++blocked_[pair_key(a, b)];
}

void Network::unblock_link(NodeId a, NodeId b) {
  auto it = blocked_.find(pair_key(a, b));
  if (it == blocked_.end()) return;
  if (--it->second == 0) blocked_.erase(it);
}

bool Network::link_blocked(NodeId a, NodeId b) const {
  return blocked_.contains(pair_key(a, b));
}

Network::Routed Network::route(NodeId from, NodeId to, std::size_t bytes,
                               SimTime now) {
  meter_.record(bytes, now);
  sends_ctr_.inc();
  bytes_ctr_.inc(bytes);
  size_hist_.observe(static_cast<std::int64_t>(bytes));
  SimDuration jitter =
      config_.max_jitter > 0
          ? static_cast<SimDuration>(jitter_rng_.next_below(
                static_cast<std::uint64_t>(config_.max_jitter) + 1))
          : 0;
  // The sender's accumulated enclave-transition cost delays the message
  // before it hits the wire: the CPU spent `sgx_cost` switching worlds
  // (ecall in, ocalls out) between the triggering event and this send.
  const SimDuration sgx_cost = simulator_->pending_charge();
  SimTime arrival = now + sgx_cost + config_.base_delay + jitter;

  if (config_.shared_bandwidth > 0) {
    // Serialize through the shared bottleneck: 1 byte takes 1e3/bw ms.
    SimDuration ser = static_cast<SimDuration>(
        (bytes * 1000 + config_.shared_bandwidth - 1) /
        config_.shared_bandwidth);
    link_free_at_ = std::max(link_free_at_, now) + ser;
    arrival = std::max(arrival, link_free_at_);
  }

  // Per-pair FIFO: never deliver earlier than a previously sent message.
  SimTime& last = fifo_slot(from, to);
  arrival = std::max(arrival, last);
  last = arrival;

  delay_hist_.observe(arrival - now);
  std::uint64_t span =
      sgx_cost > 0
          ? obs::trace_event(now, from, "net", "send", obs::fnum("to", to),
                             obs::fnum("bytes",
                                       static_cast<std::int64_t>(bytes)),
                             obs::fnum("arrival", arrival),
                             obs::fnum("sgxms", sgx_cost))
          : obs::trace_event(now, from, "net", "send", obs::fnum("to", to),
                             obs::fnum("bytes",
                                       static_cast<std::int64_t>(bytes)),
                             obs::fnum("arrival", arrival));
  return Routed{arrival, span};
}

void Network::send(NodeId from, NodeId to, Bytes blob) {
  if (!attached(from) || !attached(to) || from == to) return;
  SimTime now = simulator_->now();
  if (!blocked_.empty() && link_blocked(from, to)) {
    dropped_ctr_.inc();
    obs::trace_event(now, from, "net", "cut_drop", obs::fnum("to", to));
    obs::BufferPool::local().release(std::move(blob));
    return;
  }
  Routed r = route(from, to, blob.size(), now);
  simulator_->schedule_delivery(
      r.arrival, handler_, Delivery{from, to, r.span, std::move(blob), nullptr});
}

void Network::send_shared(NodeId from, NodeId to,
                          std::shared_ptr<const Bytes> blob) {
  if (!attached(from) || !attached(to) || from == to) return;
  SimTime now = simulator_->now();
  if (!blocked_.empty() && link_blocked(from, to)) {
    dropped_ctr_.inc();
    obs::trace_event(now, from, "net", "cut_drop", obs::fnum("to", to));
    return;
  }
  Routed r = route(from, to, blob->size(), now);
  simulator_->schedule_delivery(
      r.arrival, handler_,
      Delivery{from, to, r.span, Bytes{}, std::move(blob)});
}

void Network::multicast(NodeId from, const std::vector<NodeId>& group,
                        Bytes payload) {
  auto shared = std::make_shared<const Bytes>(std::move(payload));
  for (NodeId to : group) send_shared(from, to, shared);
}

void Network::on_delivery(Delivery&& d) {
  const SimTime now = simulator_->now();
  const Sink* sink_ptr = find_sink(d.to);
  if (sink_ptr == nullptr) {
    dropped_ctr_.inc();  // receiver left the network
    LOG_DEBUG("net: drop ", d.from, "->", d.to, " (receiver detached)");
    obs::trace_event_caused(now, d.to, d.cause_span, "net", "drop",
                            obs::fnum("from", d.from));
    if (!d.payload.empty()) obs::BufferPool::local().release(std::move(d.payload));
    return;
  }
  delivered_ctr_.inc();
  delivered_bytes_ctr_.inc(d.view().size());
  // The cause is the `net send` span carried inside the Delivery — explicit,
  // never ambient. Everything the receiver does runs under the deliver's
  // scope.
  std::uint64_t deliver_span = obs::trace_event_caused(
      now, d.to, d.cause_span, "net", "deliver", obs::fnum("from", d.from),
      obs::fnum("bytes", static_cast<std::int64_t>(d.view().size())));
  obs::TraceRecorder::Scope causal(deliver_span);
  const Sink& sink = *sink_ptr;
  if (sink.view) {
    sink.view(d.from, d.view());
    // A view sink only borrowed the bytes; recycle owned buffers.
    if (!d.payload.empty()) obs::BufferPool::local().release(std::move(d.payload));
  } else if (d.shared && sink.shared) {
    sink.shared(d.from, *d.shared);
  } else if (d.shared) {
    // Owned sink + shared payload: this receiver needs its own copy.
    Bytes blob = obs::BufferPool::local().acquire_empty(d.shared->size());
    blob.assign(d.shared->begin(), d.shared->end());
    sink.owned(d.from, std::move(blob));
  } else {
    sink.owned(d.from, std::move(d.payload));
  }
}

}  // namespace sgxp2p::sim
