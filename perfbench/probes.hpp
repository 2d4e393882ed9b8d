// Isolated per-operation probes: each replays, through one layer's public
// API, the work a workload's traced run did in situ, so its ns/op can be
// multiplied by the in-situ count.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "protocol/wire.hpp"

namespace perfbench {

/// The Vals a run's enclaves sent: `wire_sizes[s]` counts blobs of s wire
/// bytes (plaintext + AEAD overhead); `type_counts` is the registry's
/// per-type send split. Sizes keep their exact distribution; types are
/// spread over them in proportion. At most `cap` Vals, sampled evenly.
std::vector<sgxp2p::protocol::Val> make_val_mix(
    const std::vector<std::uint64_t>& wire_sizes,
    const std::vector<std::pair<sgxp2p::protocol::MsgType, std::uint64_t>>&
        type_counts,
    std::uint64_t seed, std::size_t cap);

struct SerdeCost {
  double serialize_ns = 0;
  double parse_ns = 0;
};
/// serialize_into (into a reused scratch buffer, as broadcast_val does) and
/// parse_val over the mix, each repeated for at least `min_seconds`.
SerdeCost probe_serde(const std::vector<sgxp2p::protocol::Val>& vals,
                      double min_seconds);

struct SealCost {
  double seal_ns = 0;
  double open_ns = 0;
};
/// SecureLink::seal on one end and SecureLink::open on the other, over the
/// serialized mix, in order (every open passes the replay window).
SealCost probe_seal_open(const std::vector<sgxp2p::protocol::Val>& vals,
                         double min_seconds);

/// PeerEnclave::accept_handshake of one ERNG-basic enclave's hello by
/// another, both on a real SgxPlatform verified through its SimIAS. µs/op.
double probe_handshake_us(double min_seconds);

struct DispatchSpec {
  std::uint32_t n = 0;
  std::uint32_t initiators = 1;  // ERB instances started at round 1
  sgxp2p::SimDuration base_delay = 0;
  sgxp2p::SimDuration max_jitter = 0;
  sgxp2p::SimDuration round = 0;
  std::uint64_t seed = 1;
};
struct DispatchCost {
  double ns_per_event = 0;
  std::uint64_t events = 0;  // events fired by one replay
};
/// Replays the honest ERB clique schedule of `initiators` concurrent
/// instances — INIT fan-out at round 1, every receipt ACKed, the ECHO
/// fan-out at the next round boundary — through a bare sim::Simulator with
/// no-op receivers: schedule → queue → dispatch with no protocol work.
DispatchCost probe_dispatch(const DispatchSpec& spec, double min_seconds);

}  // namespace perfbench
