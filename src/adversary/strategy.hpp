// Byzantine host strategies.
//
// A Strategy is what a byzantine operating system does with the opaque blobs
// its enclave asks it to transfer, and with the blobs arriving off the wire.
// This is exactly the adversary's surface after the reduction of Theorem
// A.2: it can forward, drop, delay, duplicate, replay, or corrupt bytes —
// but it cannot read or mint valid ones. Concrete strategies (honest, crash,
// random/selective omission, delay, replay, forge, chain-delay, …) live in
// strategies.hpp; protocol code never sees them.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"

namespace sgxp2p::adversary {

/// Capabilities a strategy may exercise. Implemented by net::Host.
class HostContext {
 public:
  virtual ~HostContext() = default;

  [[nodiscard]] virtual NodeId self() const = 0;
  [[nodiscard]] virtual SimTime now() const = 0;

  /// Puts a blob on the wire toward `to`.
  virtual void forward(NodeId to, Bytes blob) = 0;
  /// Hands an inbound blob to the local enclave, claiming sender `from`.
  virtual void deliver(NodeId from, Bytes blob) = 0;
  /// Schedules adversarial future work (delays, replays).
  virtual void schedule_in(SimDuration delay, std::function<void()> fn) = 0;

  /// The colluding byzantine set (includes self for byzantine nodes).
  [[nodiscard]] virtual const std::vector<NodeId>& colluders() const = 0;
  /// Adversary-controlled randomness (distinct from enclave randomness).
  virtual Rng& rng() = 0;
};

class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Outbound: enclave asked for `blob` → `to`. Default: faithful transfer.
  virtual void on_send(HostContext& ctx, NodeId to, Bytes blob) {
    ctx.forward(to, std::move(blob));
  }

  /// Inbound: `blob` arrived from `from`. Default: faithful delivery.
  virtual void on_receive(HostContext& ctx, NodeId from, Bytes blob) {
    ctx.deliver(from, std::move(blob));
  }

  /// Recovery: the relaunched enclave asks its host for the sealed
  /// checkpoint. `history` is every sealed blob the host ever stored, oldest
  /// first. An honest host returns the latest; a byzantine host may return a
  /// stale one (rollback attempt, defeated by the monotonic counter), garbage,
  /// or nothing. The blob is sealed — the host cannot read or forge it.
  virtual std::optional<Bytes> on_restore(const std::vector<Bytes>& history) {
    if (history.empty()) return std::nullopt;
    return history.back();
  }

  [[nodiscard]] virtual bool is_byzantine() const { return true; }

  /// True when on_send and on_receive are exactly the faithful defaults, so
  /// the host may move a blob without handing it to the strategy. Then one
  /// immutable buffer can serve every recipient of a fan-out. A strategy
  /// that returns false gets its own copy of each blob through on_send and
  /// on_receive, and may keep, change or drop it.
  [[nodiscard]] virtual bool transparent() const { return false; }
};

/// The honest OS: transfers everything faithfully.
class HonestStrategy final : public Strategy {
 public:
  [[nodiscard]] bool is_byzantine() const override { return false; }
  [[nodiscard]] bool transparent() const override { return true; }
};

}  // namespace sgxp2p::adversary
