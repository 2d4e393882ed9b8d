// Robustness under hostile bytes: every parser and every enclave entry point
// fed random garbage, truncations, and mutations — nothing may crash, leak
// state transitions, or be accepted. (A byzantine host controls exactly
// these inputs.)
#include <gtest/gtest.h>

#include "channel/handshake.hpp"
#include "common/rng.hpp"
#include "protocol/erb_node.hpp"
#include "protocol/wire.hpp"
#include "sgx/attestation.hpp"
#include "scenario/scenario.hpp"

namespace sgxp2p {
namespace {

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.next_below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

TEST(Fuzz, ParseValNeverCrashesAndRoundTripsSurvive) {
  Rng rng(101);
  int parsed = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    Bytes junk = random_bytes(rng, 64);
    auto val = protocol::parse_val(junk);
    if (val) {
      ++parsed;
      // Anything that parses must re-serialize to an equivalent value.
      auto again = protocol::parse_val(protocol::serialize(*val));
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(*again, *val);
    }
  }
  // Random bytes essentially never form a valid val (type byte + exact
  // length discipline); a handful of accidental parses is acceptable.
  EXPECT_LT(parsed, 50);
}

TEST(Fuzz, QuoteDeserializeNeverCrashes) {
  Rng rng(202);
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes junk = random_bytes(rng, 120);
    (void)sgx::Quote::deserialize(junk);
  }
}

TEST(Fuzz, HandshakeDeserializeNeverCrashes) {
  Rng rng(303);
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes junk = random_bytes(rng, 150);
    (void)channel::HandshakeMsg::deserialize(junk);
  }
}

TEST(Fuzz, EnclaveDeliverSurvivesGarbageStorm) {
  // A live ERB deployment; one node's enclave is bombarded with garbage
  // claimed to come from every peer. The protocol outcome must be exactly
  // the honest outcome.
  const std::uint32_t n = 5;
  sim::Testbed bed(scenario::sim_config(n, 404));
  Bytes msg = to_bytes("survives");
  bed.build(scenario::erb_factory(0, msg));
  bed.start();

  Rng rng(505);
  // Storm before, during, and after round 1.
  auto storm = [&](NodeId target) {
    for (int i = 0; i < 200; ++i) {
      NodeId claimed_from = static_cast<NodeId>(rng.next_below(n));
      bed.enclave(target).deliver(claimed_from, random_bytes(rng, 200));
    }
  };
  storm(2);
  bed.run_rounds(1);
  storm(2);
  storm(3);
  bed.run_rounds(5, scenario::honest_done(bed));
  for (NodeId id = 0; id < n; ++id) {
    const auto& r = bed.enclave_as<protocol::ErbNode>(id).result();
    ASSERT_TRUE(r.decided) << "node " << id;
    ASSERT_TRUE(r.value.has_value());
    EXPECT_EQ(*r.value, msg);
  }
}

TEST(Fuzz, MutatedRealBlobsAllRejected) {
  // Take a genuine sealed protocol blob and mutate every byte; the channel
  // must reject all mutants (none may reach the protocol as a different
  // message).
  const std::uint32_t n = 3;
  sim::Testbed bed(scenario::sim_config(n, 606));
  bed.build(scenario::erb_factory(0, to_bytes("original")));

  // Craft a genuine blob by sealing through enclave 0's setup path.
  Bytes real_blob = bed.enclave(0).make_seq_blob(1);
  Rng rng(707);
  for (std::size_t i = 0; i < real_blob.size(); ++i) {
    Bytes mutant = real_blob;
    mutant[i] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    // accept_seq_blob returns false on any mutation (MAC failure or parse).
    EXPECT_FALSE(bed.enclave(1).accept_seq_blob(0, mutant)) << "byte " << i;
  }
  // The pristine blob still works (the mutants burned nothing).
  EXPECT_TRUE(bed.enclave(1).accept_seq_blob(0, real_blob));
}

TEST(Fuzz, SerializedValMutationsNeverEquivocate) {
  // Property: for a fixed sealed INIT, any mutation either fails to open or
  // — impossible with a MAC — changes the payload. Verified indirectly at
  // the AEAD layer, re-checked here at the val layer for the parser.
  protocol::Val val{protocol::MsgType::kInit, 0, 42, 1, to_bytes("payload")};
  Bytes wire = protocol::serialize(val);
  Rng rng(808);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes mutant = wire;
    std::size_t at = rng.next_below(mutant.size());
    mutant[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    auto parsed = protocol::parse_val(mutant);
    if (parsed) {
      // A parseable mutant must differ from the original in a field the
      // protocol checks (type/initiator/seq/round) or in the payload —
      // i.e., it cannot equal the original val.
      EXPECT_NE(*parsed, val);
    }
  }
}

}  // namespace
}  // namespace sgxp2p
