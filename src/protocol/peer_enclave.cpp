#include "protocol/peer_enclave.hpp"

#include <algorithm>

#include "channel/handshake.hpp"
#include "common/check.hpp"
#include "crypto/aead.hpp"
#include "crypto/x25519.hpp"
#include "obs/pool.hpp"

namespace sgxp2p::protocol {

namespace {
/// Maps a program identity onto the stable metric/trace namespace. Static
/// strings only: trace events store the pointer.
const char* obs_namespace(const std::string& program_name) {
  if (program_name.rfind("erng", 0) == 0) return "erng";
  if (program_name.rfind("erb", 0) == 0) return "erb";
  if (program_name.rfind("eba", 0) == 0) return "eba";
  if (program_name.rfind("shard", 0) == 0) return "shard";
  return "peer";
}

/// kAccounted seal: the same wire size, no cipher work. One allocation
/// holds the zero-filled header (resize value-initializes) and the
/// plaintext.
Bytes accounted_seal(ByteView plaintext) {
  const std::size_t wire_size = crypto::kAeadOverhead + plaintext.size();
  Bytes out = obs::BufferPool::local().acquire_empty(wire_size);
  out.resize(crypto::kAeadOverhead);
  append(out, plaintext);
  return out;
}

/// kAccounted open: the Val behind the zero header, parsed in place.
std::optional<Val> accounted_open(ByteView blob) {
  if (blob.size() < crypto::kAeadOverhead) return std::nullopt;
  return parse_val(blob.subspan(crypto::kAeadOverhead));
}

/// lower_bound order of the id-sorted peer sequence table.
constexpr auto kIdLess = [](const auto& entry, NodeId id) {
  return entry.id < id;
};
}  // namespace

PeerEnclave::PeerEnclave(sgx::SgxPlatform& platform, sgx::CpuId cpu,
                         const sgx::ProgramIdentity& program,
                         sgx::EnclaveHostIface& host, PeerConfig config,
                         const sgx::SimIAS& ias)
    : sgx::Enclave(platform, cpu, program, host),
      cfg_(config),
      ias_(&ias),
      obs_ns_(obs_namespace(program.name)) {
  CHECK_MSG(cfg_.n >= 1 && cfg_.self < cfg_.n, "PeerEnclave: bad id/size");
  CHECK_MSG(2 * cfg_.t < cfg_.n, "PeerEnclave: t must satisfy t < N/2");
  dh_private_ = read_rand().generate(crypto::kX25519KeySize);
  my_seq_ = read_rand().next_u64();
}

Bytes PeerEnclave::handshake_blob() {
  if (dh_public_.empty()) dh_public_ = crypto::x25519_public(dh_private_);
  sgx::Quote q = quote(dh_public_);
  return channel::make_handshake(cfg_.self, std::move(q)).serialize();
}

bool PeerEnclave::accept_handshake(ByteView blob) {
  auto msg = channel::HandshakeMsg::deserialize(blob);
  if (!msg) return false;
  auto keys = channel::complete_handshake(*msg, cfg_.self, dh_private_,
                                          measurement(), *ias_);
  if (!keys) return false;
  links_.insert_or_assign(
      msg->sender, channel::SecureLink(cfg_.self, msg->sender,
                                       std::move(*keys), measurement()));
  return true;
}

void PeerEnclave::install_fast_link(NodeId peer) {
  // Called once per ordered pair by the harness; no dedupe needed (and a
  // linear scan here would make O(N²) setup O(N³) at benchmark scale).
  if (peer != cfg_.self) fast_peers_.push_back(peer);
}

void PeerEnclave::serialize_setup() {
  Val val;
  val.type = MsgType::kSetup;
  val.initiator = cfg_.self;
  val.seq = my_seq_;
  val.round = 0;
  serialize_into(val, wire_scratch_);
}

Bytes PeerEnclave::make_seq_blob(NodeId to) {
  serialize_setup();
  return seal_for(to, wire_scratch_);
}

std::shared_ptr<const Bytes> PeerEnclave::shared_seq_blob() {
  if (cfg_.mode != ChannelMode::kAccounted) return nullptr;
  serialize_setup();
  return accounted_blob();
}

bool PeerEnclave::accept_seq_blob(NodeId from, ByteView blob) {
  std::optional<Val> val;
  if (cfg_.mode == ChannelMode::kAccounted) {
    val = accounted_open(blob);
  } else {
    auto plaintext = open_from(from, blob);
    if (!plaintext) return false;
    val = parse_val(*plaintext);
  }
  if (!val || val->type != MsgType::kSetup || val->initiator != from) {
    return false;
  }
  install_peer_seq(from, val->seq);
  return true;
}

void PeerEnclave::start_protocol(SimTime t0) {
  CHECK_MSG(!started_, "start_protocol called twice");
  started_ = true;
  start_time_ = t0;
  obs_event("protocol_start", obs::fnum("t0", t0),
            obs::fnum("n", cfg_.n), obs::fnum("t", cfg_.t));
  on_protocol_start();
}

std::uint32_t PeerEnclave::current_round() const {
  if (!started_ || cfg_.round_ms <= 0) return 0;
  SimTime now = trusted_time();
  if (now < start_time_) return 0;
  return static_cast<std::uint32_t>((now - start_time_) / cfg_.round_ms) + 1;
}

void PeerEnclave::on_tick() {
  if (!started_ || halted_) return;
  std::uint32_t rnd = current_round();
  if (rnd == 0) return;
  account_ecall("tick");  // the trusted timer enters the enclave
  if (rounds_ctr_ == nullptr) rounds_ctr_ = &obs_counter("round_begin");
  rounds_ctr_->inc();
  // The round tick is a causal root; everything the protocol does at the
  // boundary (scheduled ECHOs, retries) descends from this span.
  std::uint64_t span = obs_event("round_begin", obs::fnum("round", rnd));
  obs::TraceRecorder::Scope causal(span);
  on_round_begin(rnd);
}

void PeerEnclave::halt_self() {
  if (halted_) return;
  halted_ = true;
  obs_counter("halts").inc();
  obs_event("halt", obs::fnum("round", current_round()));
}

obs::Counter& PeerEnclave::obs_counter(const char* name, const char* label) {
  std::string full(obs_ns_);
  full += '.';
  full += name;
  return obs::MetricsRegistry::current().counter(full, label);
}

std::uint64_t PeerEnclave::obs_event(const char* event, obs::TraceField f0,
                                     obs::TraceField f1, obs::TraceField f2,
                                     obs::TraceField f3) {
  obs::TraceRecorder& tr = obs::TraceRecorder::global();
  if (!tr.enabled()) return 0;  // skip the trusted_time() read when off
  return tr.record(obs::TraceEvent{trusted_time(), cfg_.self, 0, 0, obs_ns_,
                                   event, {f0, f1, f2, f3}});
}

void PeerEnclave::deliver(NodeId from, ByteView blob) {
  if (!started_ || halted_) return;
  std::optional<Val> val;
  if (cfg_.mode == ChannelMode::kAccounted) {
    val = accounted_open(blob);  // parse_val copies the payload it keeps
  } else {
    auto plaintext = open_from(from, blob);
    if (!plaintext) return;  // forged, corrupted, or replayed — an omission
    val = parse_val(*plaintext);
    // parse_val copied what it keeps; recycle the plaintext buffer so the
    // next open (or seal) on this thread reuses its capacity.
    obs::BufferPool::local().release(std::move(*plaintext));
  }
  if (!val) return;
  on_val(from, *val);
}

std::optional<std::uint64_t> PeerEnclave::expected_seq(
    NodeId initiator) const {
  if (initiator == cfg_.self) return my_seq_;
  auto it = std::lower_bound(peer_seq_.begin(), peer_seq_.end(), initiator,
                             kIdLess);
  if (it == peer_seq_.end() || it->id != initiator) return std::nullopt;
  return it->seq;
}

void PeerEnclave::put_seq(std::vector<PeerSeq>& table, NodeId id,
                          std::uint64_t seq) {
  // Setup installs N−1 entries per enclave, ~N² in all, always in
  // ascending id order, so that case appends in O(1) with no search. Any
  // other order inserts in place and moves the entries above: fine for a
  // membership join, but it would turn the O(N²) setup into O(N³).
  if (table.empty() || table.back().id < id) {
    table.push_back({id, seq});
    return;
  }
  auto it = std::lower_bound(table.begin(), table.end(), id, kIdLess);
  if (it != table.end() && it->id == id) {
    it->seq = seq;
  } else {
    table.insert(it, {id, seq});
  }
}

void PeerEnclave::bump_all_seqs() {
  ++my_seq_;
  for (PeerSeq& entry : peer_seq_) ++entry.seq;
}

void PeerEnclave::account_send(const Val& val, NodeId to,
                               std::size_t wire_bytes) {
  send_stats_.count(val.type, wire_bytes);
  auto slot = static_cast<std::size_t>(val.type);
  if (slot < SendStats::kTypeSlots) {
    if (type_counters_[slot] == nullptr) {
      type_counters_[slot] = &obs_counter("send", msg_type_name(val.type));
    }
    type_counters_[slot]->inc();
  }
  if (send_bytes_ctr_ == nullptr) {
    send_bytes_ctr_ = &obs_counter("send_bytes");
  }
  send_bytes_ctr_->inc(wire_bytes);
  obs_event("send", obs::fstr("type", msg_type_name(val.type)),
            obs::fnum("to", to), obs::fnum("round", val.round),
            obs::fnum("bytes", static_cast<std::int64_t>(wire_bytes)));
}

void PeerEnclave::send_val(NodeId to, const Val& val) {
  if (halted_ || to == cfg_.self) return;
  serialize_into(val, wire_scratch_);
  transfer_val(to, val, accounted_blob());
}

void PeerEnclave::broadcast_val(const std::vector<NodeId>& group,
                                const Val& val) {
  if (halted_) return;
  serialize_into(val, wire_scratch_);
  const std::shared_ptr<const Bytes> shared = accounted_blob();
  for (NodeId to : group) {
    if (to != cfg_.self) transfer_val(to, val, shared);
  }
}

void PeerEnclave::transfer_val(NodeId to, const Val& val,
                               const std::shared_ptr<const Bytes>& shared) {
  if (shared) {
    account_send(val, to, shared->size());
    ocall_transfer_shared(to, shared);
    return;
  }
  Bytes blob = seal_for(to, wire_scratch_);
  account_send(val, to, blob.size());
  ocall_transfer(to, std::move(blob));
}

std::shared_ptr<const Bytes> PeerEnclave::accounted_blob() {
  if (cfg_.mode != ChannelMode::kAccounted) return nullptr;
  const Bytes* last = accounted_blob_.get();
  // An accounted blob is the zero header plus the plaintext, so equal
  // plaintexts give byte-identical blobs.
  if (last == nullptr ||
      !std::equal(wire_scratch_.begin(), wire_scratch_.end(),
                  last->begin() + crypto::kAeadOverhead, last->end())) {
    accounted_blob_ =
        std::make_shared<const Bytes>(accounted_seal(wire_scratch_));
  }
  return accounted_blob_;
}

std::vector<NodeId> PeerEnclave::peers() const {
  std::vector<NodeId> out;
  if (cfg_.mode == ChannelMode::kAttested) {
    out.reserve(links_.size());
    for (const auto& [id, link] : links_) out.push_back(id);
  } else {
    out = fast_peers_;
  }
  std::sort(out.begin(), out.end());
  return out;
}

Bytes PeerEnclave::export_core_state() const {
  BinaryWriter w;
  w.str("sgxp2p-core-v1");
  w.u64(my_seq_);
  // The table is id-sorted, so same-seed checkpoints are byte-identical.
  w.u32(static_cast<std::uint32_t>(peer_seq_.size()));
  for (const PeerSeq& entry : peer_seq_) {
    w.u32(entry.id);
    w.u64(entry.seq);
  }
  std::vector<NodeId> link_ids = peers();
  w.u32(static_cast<std::uint32_t>(
      cfg_.mode == ChannelMode::kAttested ? link_ids.size() : 0));
  if (cfg_.mode == ChannelMode::kAttested) {
    for (NodeId id : link_ids) w.bytes(links_.at(id).serialize());
  }
  return w.take();
}

bool PeerEnclave::import_core_state(ByteView data) {
  BinaryReader r(data);
  if (r.str() != "sgxp2p-core-v1") return false;
  std::uint64_t my_seq = r.u64();
  std::uint32_t n_seqs = r.u32();
  if (!r.ok() || n_seqs > 1 << 20) return false;
  // export_core_state writes ids ascending. Any other order is sorted
  // here, stably, so a repeated id keeps its last entry.
  std::vector<PeerSeq> entries;
  for (std::uint32_t i = 0; i < n_seqs && r.ok(); ++i) {
    NodeId id = r.u32();
    entries.push_back({id, r.u64()});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const PeerSeq& x, const PeerSeq& y) {
                     return x.id < y.id;
                   });
  std::vector<PeerSeq> seqs;
  seqs.reserve(entries.size());
  for (const PeerSeq& entry : entries) put_seq(seqs, entry.id, entry.seq);
  std::uint32_t n_links = r.u32();
  if (!r.ok() || n_links > 1 << 20) return false;
  std::unordered_map<NodeId, channel::SecureLink> links;
  for (std::uint32_t i = 0; i < n_links; ++i) {
    auto link = channel::SecureLink::deserialize(r.bytes(), measurement());
    if (!link) return false;
    NodeId peer = link->peer();
    links.insert_or_assign(peer, std::move(*link));
  }
  if (!r.done()) return false;
  my_seq_ = my_seq;
  peer_seq_ = std::move(seqs);
  for (auto& [id, link] : links) links_.insert_or_assign(id, std::move(link));
  return true;
}

Bytes PeerEnclave::seal_for(NodeId to, ByteView plaintext) {
  if (cfg_.mode == ChannelMode::kAccounted) return accounted_seal(plaintext);
  auto it = links_.find(to);
  CHECK_MSG(it != links_.end(), "seal_for: no link with peer");
  return it->second.seal(plaintext);
}

std::optional<Bytes> PeerEnclave::open_from(NodeId from, ByteView blob) {
  auto it = links_.find(from);
  if (it == links_.end()) return std::nullopt;
  return it->second.open(blob);
}

}  // namespace sgxp2p::protocol
